package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	counterminer "counterminer"
	"counterminer/pkg/client"
)

const (
	// daemonStarts is how often a serve-mixed run starts the daemon to
	// measure set-up; the last one serves the load.
	daemonStarts = 7
	// syncClients is the closed loop's client count.
	syncClients = 4
	// streamJobs is the size of each streamed async batch; its last job
	// duplicates its first, so the batch planner dedups one.
	streamJobs = 8
	// streamEvery paces the streamed batches. On a schedule rather than
	// back to back, the stream's share of the daemon stays the same from
	// run to run instead of racing the synchronous clients for it.
	streamEvery = 2 * time.Second
)

// requestEvents are the event patterns of every serve-mixed request:
// the 11-event shape the cmload driver uses, small enough that one
// analysis is tens of milliseconds and a run holds thousands.
var requestEvents = []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"}

// serveMixed loads counterminerd with syncClients closed-loop clients
// and one streaming consumer. Client w's k-th request is, by k mod 8: a
// distinct analysis (0-5); the k/8-th hot analysis every client asks for
// at about the same time (6: singleflight or cache hit); a repeat of its
// previous request (7: cache hit). About a fifth of the requests are
// answered without an execution, so the median latency stays well
// inside the executed requests' distribution. The stream consumer
// submits an async batch of streamJobs analyses every streamEvery and
// drains it over SSE. Set-up is daemon start to ready; the daemon must
// drain and exit 0 at the end.
func serveMixed(ctx context.Context, cfg config) (*outcome, error) {
	if cfg.daemon == "" {
		return nil, errors.New("-daemon is required")
	}
	probe, err := counterminer.NewPipeline(counterminer.Options{})
	if err != nil {
		return nil, err
	}
	events, err := probe.Catalogue().Select(requestEvents)
	if err != nil {
		return nil, err
	}
	benchmarks := probe.Benchmarks()
	base := cfg.seed * 10_000_000
	mk := func(bench string, seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{Benchmark: bench, Events: events, Runs: 2, Trees: 20, SkipEIR: true, Seed: seed}
	}
	hot := func(h int) client.AnalyzeRequest {
		r := rand.New(rand.NewSource(base + int64(h)))
		return mk(benchmarks[r.Intn(len(benchmarks))], base+1_000_000+int64(h))
	}

	out := &outcome{}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		d, took, err = startDaemon(ctx, cfg.daemon, filepath.Join(cfg.dir, fmt.Sprintf("db-%d", i)))
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, took)
	}
	mc := client.New(d.url)
	before, err := mc.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex
		digests = map[string]string{} // content address -> analysis digest
		first   *served               // the first request the daemon executed
		wg      sync.WaitGroup
	)
	// record folds one result into the run; callers hold mu.
	record := func(key string, a *counterminer.Analysis) {
		if err := checkAnalysis(a, len(events), true); err != nil {
			out.problem("key %s: %v", key, err)
			return
		}
		dg := digest(a)
		if prev, ok := digests[key]; ok && prev != dg {
			out.problem("key %s served two different analyses", key)
		}
		digests[key] = dg
	}

	start := time.Now()
	for w := 0; w < syncClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(d.url, client.WithMaxRetries(4))
			rng := rand.New(rand.NewSource(base + 1000 + int64(w)))
			var req client.AnalyzeRequest
			for k := 0; time.Since(start) < cfg.dur && ctx.Err() == nil; k++ {
				switch k % 8 {
				case 6:
					req = hot(k / 8)
				case 7: // repeat the previous request
				default:
					req = mk(benchmarks[rng.Intn(len(benchmarks))], base+2_000_000+int64(w)*100_000+int64(k))
				}
				t0 := time.Now()
				resp, err := c.Analyze(ctx, req)
				lat := time.Since(t0)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.failed++
					out.problem("%s seed %d: %v", req.Benchmark, req.Seed, err)
					mu.Unlock()
					continue
				}
				o := op{
					start:   t0.Sub(start),
					latency: lat,
					call:    time.Duration(resp.ElapsedMs * float64(time.Millisecond)),
					note:    req.Benchmark,
				}
				switch {
				case resp.Cached:
					o.note += " cached"
				case resp.Shared:
					o.note += " shared"
				default:
					o.stages = resp.Analysis.Stages
					o.fits = len(resp.Analysis.EIRNumEvents)
					if first == nil {
						first = &served{req, resp.Key}
					}
				}
				out.ops = append(out.ops, o)
				record(resp.Key, resp.Analysis)
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := client.New(d.url, client.WithMaxRetries(4))
		rng := rand.New(rand.NewSource(base + 2000))
		for b := 0; time.Duration(b)*streamEvery < cfg.dur; b++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(b) * streamEvery))):
			case <-ctx.Done():
				return
			}
			jobs := make([]client.AnalyzeRequest, streamJobs)
			for j := range jobs[:streamJobs-1] {
				jobs[j] = mk(benchmarks[rng.Intn(len(benchmarks))], base+3_000_000+int64(b)*100+int64(j))
			}
			jobs[streamJobs-1] = jobs[0]
			streamBatch(ctx, c, jobs, out, &mu, record)
		}
	}()
	wg.Wait()
	out.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Untimed checks: the daemon's counters, a local recomputation of
	// one served analysis, the persisted runs, and a clean drain.
	after, err := mc.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out.counts = map[string]float64{
		"cache_hits":          float64(after.Requests.CacheHits - before.Requests.CacheHits),
		"singleflight_shared": float64(after.Requests.SingleflightShared - before.Requests.SingleflightShared),
		"memo_hits":           float64(after.Collector.MemoHits - before.Collector.MemoHits),
		"stream_events":       float64(after.Stream.EventsSent - before.Stream.EventsSent),
	}
	executed := after.Analyses.Completed - before.Analyses.Completed
	if n := after.Analyses.Failed + after.Analyses.Canceled; n > 0 {
		out.problem("daemon reports %d failed or canceled analyses", n)
	}
	if uint64(len(digests)) != executed {
		out.problem("%d distinct results served, daemon executed %d analyses", len(digests), executed)
	}
	if first != nil {
		checkAgainstLibrary(ctx, out, first.req, digests[first.key])
	}
	bs, err := mc.Benchmarks(ctx)
	switch {
	case err != nil:
		out.problem("/benchmarks: %v", err)
	case bs.Store == nil || uint64(bs.Store.Runs) != 2*executed:
		out.problem("store holds %v, want %d runs", bs.Store, 2*executed)
	}
	err = d.stop()
	d = nil
	if err != nil {
		out.problem("daemon drain: %v", err)
	}
	if len(out.ops) == 0 {
		return nil, errors.New("no request completed")
	}
	return out, nil
}

// streamBatch submits one async batch and drains its SSE stream,
// checking that every job completes exactly once and the terminal event
// carries the batch's accounting.
func streamBatch(ctx context.Context, c *client.Client, jobs []client.AnalyzeRequest, out *outcome, mu *sync.Mutex, record func(string, *counterminer.Analysis)) {
	mu.Lock()
	out.attempted += len(jobs)
	mu.Unlock()
	fail := func(n int, format string, args ...any) {
		mu.Lock()
		out.failed += n
		out.problem(format, args...)
		mu.Unlock()
	}
	st, err := c.AnalyzeBatchStream(ctx, jobs)
	if err != nil {
		fail(len(jobs), "async batch: %v", err)
		return
	}
	defer st.Close()
	seen := make([]bool, len(jobs))
	got := 0
	for st.Next() {
		r := st.Result()
		if r.Index < 0 || r.Index >= len(jobs) || seen[r.Index] {
			fail(0, "stream %s: unexpected or repeated job %d", st.Handle(), r.Index)
			continue
		}
		seen[r.Index] = true
		got++
		if r.Error != nil {
			fail(1, "stream %s job %d: %s", st.Handle(), r.Index, r.Error.Message)
			continue
		}
		mu.Lock()
		record(r.Key, r.Analysis)
		mu.Unlock()
	}
	if err := st.Err(); err != nil {
		fail(len(jobs)-got, "stream %s: %v", st.Handle(), err)
		return
	}
	done := st.Done()
	switch {
	case got != len(jobs):
		fail(len(jobs)-got, "stream %s: %d of %d jobs completed", st.Handle(), got, len(jobs))
	case done.Status != "done" || done.Stats.Submitted != len(jobs) || done.Stats.Deduped != 1:
		fail(0, "stream %s: terminal event %+v", st.Handle(), *done)
	}
}

// served is one request and the content address the daemon answered
// it under.
type served struct {
	req client.AnalyzeRequest
	key string
}

// checkAgainstLibrary recomputes one served analysis in process and
// requires the daemon's answer, of the given digest, to be
// bit-identical.
func checkAgainstLibrary(ctx context.Context, out *outcome, req client.AnalyzeRequest, got string) {
	p, err := counterminer.NewPipeline(counterminer.Options{
		Events: req.Events, Runs: req.Runs, Trees: req.Trees, SkipEIR: req.SkipEIR, Seed: req.Seed,
	})
	if err != nil {
		out.problem("library pipeline: %v", err)
		return
	}
	a, err := p.AnalyzeContext(ctx, req.Benchmark)
	if err != nil {
		out.problem("library analysis: %v", err)
		return
	}
	if digest(a) != got {
		out.problem("daemon's analysis of %s seed %d differs from the library's", req.Benchmark, req.Seed)
	}
}

// daemon is one running counterminerd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	// drained is closed once the daemon's standard output hits EOF,
	// which must happen before Wait.
	drained chan struct{}
}

// startDaemon starts counterminerd on an ephemeral port over a fresh
// store and returns once /readyz answers ready, with the time that took.
func startDaemon(ctx context.Context, bin, db string) (*daemon, time.Duration, error) {
	// The queue holds every job the clients and one streamed batch can
	// have outstanding, so no request is refused; the cache holds every
	// result a run can produce, so no duplicate executes twice. One
	// analysis thread per worker keeps the two workers from contending
	// for two cores, which made latency spread wider from run to run.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-db", db, "-workers", "2", "-analysis-workers", "1", "-queue", "32", "-cache", "8192")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer), drained: make(chan struct{})}
	cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "counterminerd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.drained:
		err := d.stop()
		return nil, 0, fmt.Errorf("daemon exited before listening: %v: %s", err, d.stderr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("daemon did not listen within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, 0, ctx.Err()
	}
	c := client.New(d.url)
	for {
		r, err := c.Ready(ctx)
		if err == nil && r.Status == "ready" {
			return d, time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 30s, waits for it, and reports a non-zero exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%v: %s", err, d.stderr)
	}
	return nil
}
