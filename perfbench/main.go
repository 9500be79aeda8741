// Command perfbench is CounterMiner's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed time and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"latency_ms": {"value": 912.4, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones a user sees
// (latency_ms, p95_ms, ops_per_s, setup_s); with -trace 1 they are the
// per-layer ones (per-stage time, the time outside the stages split
// into the caller's side and the serving call's side, and the daemon's
// cache, singleflight, memo and stream counters), and one JSON line
// per operation is written under <work>/traces.
//
// Workloads (every input is derived from -seed):
//
//	analyze-full  a library user mining wordcount at the real shape:
//	              the full 229-event catalogue, 80 trees, the EIR
//	              refinement loop, the threshold-knn cleaner, runs
//	              persisted to a fresh store. One analysis at a time.
//	analyze-fast  the same shape with EIR skipped (one model fit) and
//	              the bayes cleaner, rotating over all 16 benchmarks:
//	              the path that bypasses the EIR loop.
//	serve-mixed   counterminerd under a closed loop of 4 synchronous
//	              clients (distinct, hot shared and repeated requests,
//	              so the result cache and singleflight are used) plus
//	              one consumer streaming async batches over SSE.
//
// It is normally started through run.sh, which builds it and the
// daemon first:
//
//	bash perfbench/run.sh --workload analyze-fast --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what every workload is handed.
type config struct {
	seed   int64
	dur    time.Duration
	trace  bool
	daemon string // counterminerd binary (serve-mixed only)
	dir    string // scratch directory for this run, removed at exit
}

type workload func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workload{
	"analyze-full": analyzeWorkload(fullShape),
	"analyze-fast": analyzeWorkload(fastShape),
	"serve-mixed":  serveMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed every input is derived from")
		seconds = fs.Int("seconds", 30, "length of the measured window")
		trace   = fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics and writes traces")
		daemon  = fs.String("daemon", "", "counterminerd binary (serve-mixed)")
		work    = fs.String("work", ".bench_build", "directory for scratch stores and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q; one of %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		daemon: *daemon,
		dir:    dir,
	}
	out, err := wl(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect: %s\n", *name, p)
	}
	res := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if cfg.trace {
		res.Metrics = out.layerMetrics()
		path := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := out.writeTrace(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace:", err)
			return 1
		}
	} else {
		res.Metrics = out.endToEndMetrics()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
