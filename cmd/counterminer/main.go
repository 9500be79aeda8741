// Command counterminer runs the full CounterMiner pipeline — collect
// (MLPX) → clean → importance ranking (EIR/MAPM) → interaction ranking
// — on one benchmark of the simulated cluster and prints the mined
// results.
//
// Usage:
//
//	counterminer -bench wordcount
//	counterminer -bench sort -events "L2_RQSTS.*,BR_*,ISF,ICACHE.MISSES"
//	counterminer -bench DataCaching -colocate GraphAnalytics
//	counterminer -bench wordcount -chaos 0.2 -min-runs 1
//	counterminer -csv run.csv
//	counterminer -list
//
// -chaos injects seeded collection/store faults (see internal/fault)
// to demonstrate the graceful-degradation path: the run completes with
// a degradation report instead of aborting on the first failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	counterminer "counterminer"
	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fault"
	"counterminer/internal/sim"
	"counterminer/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("counterminer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "", "benchmark to analyse (see -list)")
		colocate  = fs.String("colocate", "", "second benchmark to co-locate with -bench")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		runs      = fs.Int("runs", 3, "benchmark executions to collect")
		trees     = fs.Int("trees", 80, "SGBRT ensemble size")
		events    = fs.String("events", "", "comma-separated event patterns (globs or abbreviations; empty = all 229)")
		csvPath   = fs.String("csv", "", "analyse an external CSV data set (interval,<events...>,ipc) instead of a benchmark")
		topK      = fs.Int("top", 10, "events/interactions to print")
		skipEIR   = fs.Bool("fast", false, "skip EIR (single model fit)")
		dbPath    = fs.String("db", "", "persist collected runs to this store path")
		workers   = fs.Int("workers", 0, "analysis worker count (0 = GOMAXPROCS)")
		retries   = fs.Int("retries", 3, "collect attempts per run")
		retryWait = fs.Duration("retry-delay", 0, "base backoff between collect attempts (doubles per retry, capped)")
		minRuns   = fs.Int("min-runs", 0, "run quorum: proceed when this many runs succeed (0 = all)")
		chaos     = fs.Float64("chaos", 0, "fault-injection rate in [0,1): per-run failures, series corruption, store errors")
		chaosSeed = fs.Int64("chaos-seed", 1, "fault-injection seed (identical seeds replay identical failures)")
		timeout   = fs.Duration("timeout", 0, "abort the analysis after this long (0 = no deadline)")
		cleaner   = fs.String("cleaner", "", "data cleaner: threshold-knn (default, the paper's §III-B pipeline) or bayes (Bayesian multiplexing-error correction)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "counterminer:", msg)
		return 2
	}
	fatal := func(err error) int {
		// An interrupted or timed-out analysis gets the conventional
		// terminated-by-signal exit status; the typed error already
		// names the stage that observed the cancellation.
		fmt.Fprintln(stderr, "counterminer:", err)
		if errors.Is(err, counterminer.ErrCanceled) {
			return 130
		}
		return 1
	}

	// Flag validation: catch nonsense before spending any compute.
	switch {
	case *runs <= 0:
		return usage("-runs must be > 0")
	case *trees <= 0:
		return usage("-trees must be > 0")
	case *topK <= 0:
		return usage("-top must be > 0")
	case *workers < 0:
		return usage("-workers must be >= 0 (0 = GOMAXPROCS)")
	case *retries <= 0:
		return usage("-retries must be > 0")
	case *minRuns < 0 || *minRuns > *runs:
		return usage(fmt.Sprintf("-min-runs must be in [0, %d]", *runs))
	case *chaos < 0 || *chaos >= 1:
		return usage("-chaos must be in [0, 1)")
	case *timeout < 0:
		return usage("-timeout must be >= 0")
	}
	if _, err := clean.Lookup(*cleaner); err != nil {
		return usage(fmt.Sprintf("unknown cleaner %q; candidates: %s",
			*cleaner, strings.Join(clean.Candidates(*cleaner), ", ")))
	}
	if *list {
		for _, b := range sim.AllBenchmarkNames() {
			fmt.Fprintln(stdout, b)
		}
		return 0
	}
	var selected []string
	switch {
	case *csvPath != "" && *bench != "":
		return usage("-bench and -csv are mutually exclusive")
	case *csvPath != "":
		// A CSV brings its own events; -events and -colocate apply to
		// benchmarks only.
	case *bench != "":
		for _, name := range []string{*bench, *colocate} {
			if _, err := sim.ProfileByName(name); name != "" && err != nil {
				return usage(fmt.Sprintf("unknown benchmark %q; candidates: %s",
					name, strings.Join(sim.Candidates(name), ", ")))
			}
		}
		if *events != "" {
			sel, err := sim.NewCatalogue().Select(strings.Split(*events, ","))
			if err != nil {
				return usage(err.Error())
			}
			selected = sel
		}
	default:
		return usage("-bench or -csv required (see -list)")
	}

	// Ctrl-C (SIGINT) or SIGTERM cancels the analysis context; every
	// pipeline stage observes it within one unit of work, and the store's
	// atomic flush means an interrupted run never leaves a partial store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := counterminer.Options{
		Runs:         *runs,
		Trees:        *trees,
		TopK:         *topK,
		SkipEIR:      *skipEIR,
		StorePath:    *dbPath,
		Workers:      *workers,
		Retry:        counterminer.RetryPolicy{Attempts: *retries, BaseDelay: *retryWait},
		MinRuns:      *minRuns,
		CleanOptions: clean.Options{Cleaner: *cleaner},
		Events:       selected,
	}
	if *chaos > 0 {
		cfg := fault.Config{
			Seed:          *chaosSeed,
			RunFailRate:   *chaos / 4,
			TransientRate: *chaos,
			CorruptRate:   *chaos,
			StoreFailRate: *chaos,
		}
		opts.Source = fault.NewSource(collector.New(sim.NewCatalogue()), cfg)
		// StorePath stays set, so each injected write failure in the
		// degradation report names the store.
		if *dbPath != "" {
			db, err := store.Open(*dbPath)
			if err != nil {
				return fatal(err)
			}
			opts.Sink = fault.NewSink(db, cfg)
		}
	}
	p, err := counterminer.NewPipeline(opts)
	if err != nil {
		return fatal(err)
	}
	start := time.Now()
	var a *counterminer.Analysis
	switch {
	case *csvPath != "":
		f, err := os.Open(*csvPath)
		if err != nil {
			return fatal(err)
		}
		data, err := counterminer.LoadCSV(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
		a, err = counterminer.AnalyzeDataContext(ctx, data, opts)
		if err != nil {
			return fatal(err)
		}
	case *colocate != "":
		a, err = p.AnalyzeColocatedContext(ctx, *bench, *colocate)
	default:
		a, err = p.AnalyzeContext(ctx, *bench)
	}
	if err != nil {
		return fatal(err)
	}

	fmt.Fprintf(stdout, "benchmark: %s  (analysed in %v)\n", a.Benchmark, time.Since(start).Round(time.Millisecond))
	if sr := a.StageReport(); sr != "" {
		fmt.Fprintf(stdout, "stages: %s\n", sr)
	}
	fmt.Fprintf(stdout, "events measured: %d   MAPM events: %d   model error: %.1f%%\n",
		a.Events, a.MAPMEvents, a.ModelError)
	fmt.Fprintf(stdout, "cleaner: %s — %d outliers replaced, %d missing values filled\n",
		a.Cleaner, a.OutliersReplaced, a.MissingFilled)
	if d := &a.Degradation; d.Degraded() {
		fmt.Fprintf(stdout, "degradation report:\n  %s\n", strings.ReplaceAll(d.String(), "\n", "\n  "))
	}
	fmt.Fprintf(stdout, "one-three SMI count: %d\n\n", a.SMICount())

	fmt.Fprintf(stdout, "top %d important events:\n", *topK)
	for i, e := range a.TopEvents(*topK) {
		fmt.Fprintf(stdout, "  %2d. %-4s %6.2f%%  %s\n", i+1, e.Abbrev, e.Importance, e.Event)
	}
	fmt.Fprintf(stdout, "\ntop %d event-pair interactions:\n", *topK)
	for i, pr := range a.TopInteractions(*topK) {
		fmt.Fprintf(stdout, "  %2d. %-9s %6.2f%%\n", i+1, pr.Key(), pr.Importance)
	}
	if len(a.EIRNumEvents) > 1 {
		fmt.Fprintf(stdout, "\nEIR curve (events: model error):\n ")
		for i := range a.EIRNumEvents {
			fmt.Fprintf(stdout, " %d:%.1f%%", a.EIRNumEvents[i], a.EIRErrors[i])
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
