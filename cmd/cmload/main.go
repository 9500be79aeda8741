// Command cmload drives load against a running counterminerd through
// pkg/client and reports what the daemon made of it: client-side
// throughput and latency next to the server's own /metrics deltas, so
// a run shows directly how much of the offered load was absorbed by
// dedup, the content-addressed cache, and generator memoization.
//
// The traffic shape has three strands:
//
//   - distinct work: every request carries a fresh seed, forcing a
//     real execution (until the cache warms for a repeated sweep);
//   - duplicate bursts: every -dup-every'th request reuses one shared
//     seed, exercising singleflight and the result cache under
//     concurrency;
//   - one streaming consumer: a single async batch handle
//     (-stream-jobs jobs) is submitted up front and its SSE events
//     are consumed while the synchronous load runs, so the handle's
//     jobs share the admission queue with the synchronous requests.
//
// Usage:
//
//	counterminerd -addr 127.0.0.1:7070 &
//	cmload -addr http://127.0.0.1:7070 -clients 4 -requests 32
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"counterminer/pkg/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for the end-to-end test.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:7070", "base URL of the counterminerd to load")
		clients    = fs.Int("clients", 4, "concurrent synchronous clients")
		requests   = fs.Int("requests", 16, "POST /analyze requests per client")
		benchCSV   = fs.String("benchmarks", "wordcount,sort", "comma-separated benchmarks to spread requests over")
		dupEvery   = fs.Int("dup-every", 4, "every Nth request reuses a shared seed (duplicate burst; 0 = all distinct)")
		runs       = fs.Int("runs", 2, "training runs per analysis")
		trees      = fs.Int("trees", 20, "SGBRT ensemble size per analysis")
		streamJobs = fs.Int("stream-jobs", 8, "jobs in the riding async streaming batch (0 = no streaming consumer)")
		timeout    = fs.Duration("timeout", 10*time.Minute, "whole-run deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	benches := splitCSV(*benchCSV)
	switch {
	case *clients <= 0 || *requests <= 0:
		fmt.Fprintln(stderr, "cmload: -clients and -requests must be > 0")
		return 2
	case *dupEvery < 0 || *streamJobs < 0:
		fmt.Fprintln(stderr, "cmload: -dup-every and -stream-jobs must be >= 0")
		return 2
	case len(benches) == 0:
		fmt.Fprintln(stderr, "cmload: -benchmarks must name at least one benchmark")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr, client.WithMaxRetries(4))
	before, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "cmload: daemon not reachable:", err)
		return 1
	}

	events := []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"}
	job := func(bench string, seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{
			Benchmark: bench, Events: events,
			Runs: *runs, Trees: *trees, SkipEIR: true, Seed: seed,
		}
	}

	// The streaming strand: one async handle submitted before the
	// synchronous load, its events drained concurrently.
	var (
		streamEvents  atomic.Int64
		streamErr     error
		streamElapsed time.Duration
		streamWG      sync.WaitGroup
	)
	start := time.Now()
	if *streamJobs > 0 {
		sc := client.New(*addr, client.WithMaxRetries(4))
		jobs := make([]client.AnalyzeRequest, *streamJobs)
		for i := range jobs {
			jobs[i] = job(benches[i%len(benches)], int64(1000+i))
		}
		st, err := sc.AnalyzeBatchStream(ctx, jobs)
		if err != nil {
			fmt.Fprintln(stderr, "cmload: async batch submit:", err)
			return 1
		}
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			defer st.Close()
			for st.Next() {
				streamEvents.Add(1)
			}
			streamErr = st.Err()
			streamElapsed = time.Since(start)
		}()
	}

	// The synchronous strands: distinct seeds with periodic duplicate
	// bursts onto one shared seed.
	var (
		seedCounter atomic.Int64
		okCount     atomic.Int64
		errCount    atomic.Int64
		mu          sync.Mutex
		latencies   []time.Duration
	)
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := client.New(*addr, client.WithMaxRetries(4))
			for i := 0; i < *requests; i++ {
				seed := int64(1)
				if *dupEvery == 0 || (w**requests+i)%*dupEvery != 0 {
					seed = 2 + seedCounter.Add(1)
				}
				req := job(benches[(w+i)%len(benches)], seed)
				t0 := time.Now()
				_, err := lc.Analyze(ctx, req)
				d := time.Since(t0)
				if err != nil {
					errCount.Add(1)
					continue
				}
				okCount.Add(1)
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	syncElapsed := time.Since(start)
	streamWG.Wait()

	after, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "cmload: /metrics after run:", err)
		return 1
	}

	total := okCount.Load() + errCount.Load()
	fmt.Fprintf(stdout, "cmload: %d clients x %d requests over %v\n", *clients, *requests, syncElapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  throughput   %.1f req/s (%d ok, %d errors)\n",
		float64(total)/syncElapsed.Seconds(), okCount.Load(), errCount.Load())
	if p50, p95, ok := percentiles(latencies); ok {
		fmt.Fprintf(stdout, "  latency      p50 %v  p95 %v\n", p50.Round(time.Millisecond), p95.Round(time.Millisecond))
	}
	if *streamJobs > 0 {
		status := "done"
		if streamErr != nil {
			status = "error: " + streamErr.Error()
		}
		fmt.Fprintf(stdout, "  stream       %d/%d events in %v (%s)\n",
			streamEvents.Load(), *streamJobs, streamElapsed.Round(time.Millisecond), status)
	}

	fmt.Fprintf(stdout, "metrics deltas (%s):\n", *addr)
	d := func(name string, b, a uint64) {
		fmt.Fprintf(stdout, "  %-22s %d\n", name, a-b)
	}
	d("requests", before.Requests.Total, after.Requests.Total)
	d("analyses executed", before.Analyses.Completed, after.Analyses.Completed)
	d("cache hits", before.Requests.CacheHits, after.Requests.CacheHits)
	d("deduped", before.Batch.Deduped, after.Batch.Deduped)
	d("generator builds", before.Collector.Builds, after.Collector.Builds)
	d("generator memo hits", before.Collector.MemoHits, after.Collector.MemoHits)
	d("queue rejections", before.Requests.RejectedQueueFull, after.Requests.RejectedQueueFull)
	d("singleflight shared", before.Requests.SingleflightShared, after.Requests.SingleflightShared)
	d("handles opened", before.Stream.HandlesOpened, after.Stream.HandlesOpened)
	d("stream events sent", before.Stream.EventsSent, after.Stream.EventsSent)
	if streamErr != nil {
		return 1
	}
	return 0
}

// percentiles reports p50/p95 over the recorded latencies.
func percentiles(ds []time.Duration) (p50, p95 time.Duration, ok bool) {
	if len(ds) == 0 {
		return 0, 0, false
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	return at(0.50), at(0.95), true
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
