package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	counterminer "counterminer"
	"counterminer/internal/rank"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- queue -----------------------------------------------------------------

// noopJob is a queue job that does nothing and publishes nothing.
func noopJob(context.Context) func() { return nil }

func TestQueueAdmissionOverload(t *testing.T) {
	q := NewQueue(1, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := q.Submit("", time.Time{}, func(ctx context.Context) func() {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started
	if _, err := q.Submit("", time.Time{}, noopJob); err != nil {
		t.Fatalf("buffered submit: %v", err)
	}
	// Worker busy, buffer full: the third job must be rejected, typed.
	_, err := q.Submit("", time.Time{}, noopJob)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload submit error = %v, want ErrQueueFull", err)
	}
	close(release)
	q.Drain()
	if got := q.Executed(); got != 2 {
		t.Errorf("executed = %d, want 2", got)
	}
}

func TestQueueDrainCancelsQueuedViaCancelError(t *testing.T) {
	q := NewQueue(1, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := q.Submit("", time.Time{}, func(ctx context.Context) func() {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	// The queued job runs a real analysis under its job context; drain
	// cancels that context before the job starts, so the pipeline must
	// return through its typed *CancelError path.
	pipe, err := counterminer.NewPipeline(counterminer.Options{Runs: 1, Trees: 2, SkipEIR: true})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	if _, err := q.Submit("", time.Time{}, func(ctx context.Context) func() {
		_, aerr := pipe.AnalyzeContext(ctx, "wordcount")
		errc <- aerr
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		q.Drain()
		close(drained)
	}()
	// Wait until Drain has marked the queue draining (it cancels every
	// queued job under the same critical section), then let the active
	// job finish so the worker reaches the queued, already-canceled one.
	waitFor(t, "queue draining", func() bool {
		_, err := q.Submit("", time.Time{}, noopJob)
		return errors.Is(err, ErrDraining)
	})
	close(release)
	<-drained

	aerr := <-errc
	if !errors.Is(aerr, counterminer.ErrCanceled) {
		t.Fatalf("queued job error = %v, want ErrCanceled", aerr)
	}
	var ce *counterminer.CancelError
	if !errors.As(aerr, &ce) {
		t.Fatalf("queued job error %v is not a *CancelError", aerr)
	}
	if ce.Stage != counterminer.StageCollect {
		t.Errorf("canceled stage = %q, want %q", ce.Stage, counterminer.StageCollect)
	}
	if _, err := q.Submit("", time.Time{}, noopJob); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
}

// TestQueueBudgetDeadline: a job's context expires at the deadline
// passed to Submit — the one deadline a request, or a whole batch,
// carves from the server budget at arrival.
func TestQueueBudgetDeadline(t *testing.T) {
	q := NewQueue(1, 0)
	errc := make(chan error, 1)
	waitFor(t, "budget job admitted", func() bool {
		_, err := q.Submit("", time.Now().Add(20*time.Millisecond), func(ctx context.Context) func() {
			<-ctx.Done()
			errc <- ctx.Err()
			return nil
		})
		return err == nil
	})
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("budget ctx error = %v, want DeadlineExceeded", err)
	}
	q.Drain()
}

// --- cache -----------------------------------------------------------------

func TestCacheSingleflightSharesOneExecution(t *testing.T) {
	c := NewCache[*counterminer.Analysis](4)
	ana, ok, call, leader := c.Acquire("k")
	if ana != nil || ok || call == nil || !leader {
		t.Fatalf("first acquire: ana=%v ok=%v call=%v leader=%v", ana, ok, call, leader)
	}
	ana2, ok2, call2, leader2 := c.Acquire("k")
	if ana2 != nil || ok2 || leader2 || call2 != call {
		t.Fatalf("second acquire should follow the in-flight call")
	}
	want := &counterminer.Analysis{Benchmark: "wordcount"}
	c.Complete("k", call, want, nil)
	<-call2.Done
	if call2.Val != want || call2.Err != nil {
		t.Fatalf("follower result = (%v, %v)", call2.Val, call2.Err)
	}
	hit, ok, _, _ := c.Acquire("k")
	if !ok || hit != want {
		t.Fatalf("post-completion acquire should hit the cache")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[*counterminer.Analysis](2)
	for _, k := range []string{"a", "b", "c"} {
		_, _, call, leader := c.Acquire(k)
		if !leader {
			t.Fatalf("key %q should lead", k)
		}
		c.Complete(k, call, &counterminer.Analysis{Benchmark: k}, nil)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}
	if _, ok, _, _ := c.Acquire("a"); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok, _, _ := c.Acquire("c"); !ok {
		t.Error("newest entry should be cached")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache[*counterminer.Analysis](2)
	_, _, call, _ := c.Acquire("k")
	boom := errors.New("boom")
	c.Complete("k", call, nil, boom)
	if call.Err != boom {
		t.Fatalf("call err = %v", call.Err)
	}
	_, _, _, leader := c.Acquire("k")
	if !leader {
		t.Error("a failed key must re-lead, not replay the error")
	}
}

// --- content address -------------------------------------------------------

func TestKeyCanonicalization(t *testing.T) {
	base := Key("wordcount", "", nil, counterminer.Options{})
	explicitDefaults := Key("wordcount", "", nil, counterminer.Options{
		Runs: 3, Trees: 80, PruneStep: rank.DefaultPruneStep, TopK: 10, Seed: 1, MinRuns: 3,
	})
	if base != explicitDefaults {
		t.Error("zero options and explicit defaults must collide")
	}
	// Worker counts never change results, so they never change keys.
	if got := Key("wordcount", "", nil, counterminer.Options{Workers: 7}); got != base {
		t.Error("Workers must not affect the key")
	}
	reqOpts := counterminer.Options{}
	reqOpts.CleanOptions.Workers = 3
	if got := Key("wordcount", "", nil, reqOpts); got != base {
		t.Error("CleanOptions.Workers must not affect the key")
	}
	if got := Key("wordcount", "", nil, counterminer.Options{Seed: 2}); got == base {
		t.Error("Seed must affect the key")
	}
	if got := Key("sort", "", nil, counterminer.Options{}); got == base {
		t.Error("benchmark must affect the key")
	}
	if got := Key("wordcount", "sort", nil, counterminer.Options{}); got == base {
		t.Error("co-location must affect the key")
	}
	ab := Key("wordcount", "", []string{"A", "B"}, counterminer.Options{})
	ba := Key("wordcount", "", []string{"B", "A"}, counterminer.Options{})
	if ab == ba {
		t.Error("event order must affect the key (column order drives tie-breaks)")
	}
}

// --- metrics ---------------------------------------------------------------

func TestMetricsStageHistograms(t *testing.T) {
	m := NewMetrics()
	ana := &counterminer.Analysis{
		Stages: []counterminer.StageTiming{
			{Stage: counterminer.StageCollect, Duration: 3 * time.Millisecond},
			{Stage: counterminer.StageRank, Duration: 700 * time.Millisecond},
		},
	}
	m.ObserveAnalysis(ana, nil)
	m.ObserveAnalysis(nil, &counterminer.CancelError{Stage: "Rank", Err: context.Canceled})
	snap := m.SnapshotFrom(gauges{})
	if snap.Analyses.Completed != 1 || snap.Analyses.Canceled != 1 {
		t.Fatalf("analyses = %+v", snap.Analyses)
	}
	names := counterminer.StageNames()
	if len(snap.StageLatency) != len(names) {
		t.Fatalf("stage series = %d, want %d (pre-registered plan)", len(snap.StageLatency), len(names))
	}
	for i, sh := range snap.StageLatency {
		if sh.Stage != names[i] {
			t.Errorf("stage %d = %q, want plan order %q", i, sh.Stage, names[i])
		}
	}
	collect := snap.StageLatency[0]
	if collect.Count != 1 {
		t.Fatalf("collect count = %d", collect.Count)
	}
	// 3ms lands in the le<=5ms bucket; cumulative counts reach 1 there
	// and stay 1 through +Inf.
	for _, b := range collect.Buckets {
		want := uint64(1)
		if b.LeMs >= 0 && b.LeMs < 3 {
			want = 0
		}
		if b.Count != want {
			t.Errorf("collect bucket le=%v count=%d, want %d", b.LeMs, b.Count, want)
		}
	}
}

// --- HTTP surface ----------------------------------------------------------

// testServer builds a server whose analyze function blocks on a gate
// and counts executions, making concurrency scenarios deterministic.
type gate struct {
	entered chan string
	release chan struct{}
	count   atomic.Int64
}

func newGatedServer(t *testing.T, cfg Config) (*Server, *gate) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{entered: make(chan string, 16), release: make(chan struct{})}
	s.analyze = func(ctx context.Context, job Job) (*counterminer.Analysis, error) {
		g.count.Add(1)
		g.entered <- job.Benchmark
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, &counterminer.CancelError{Stage: counterminer.StageCollect, Err: ctx.Err()}
		}
		return &counterminer.Analysis{Benchmark: job.Benchmark, Events: 229}, nil
	}
	return s, g
}

func postAnalyze(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestServerSingleflightConcurrentRequests(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 2, QueueDepth: 4, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	body := `{"benchmark":"wordcount","skip_eir":true,"trees":20}`
	type result struct {
		status int
		resp   client.AnalyzeResponse
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postAnalyze(t, ts.URL, body)
			var ar client.AnalyzeResponse
			if err := json.Unmarshal(b, &ar); err != nil {
				t.Errorf("decode: %v (%s)", err, b)
			}
			results <- result{resp.StatusCode, ar}
		}()
	}
	// One request leads and enters the (gated) analysis; wait until the
	// other has attached to the same in-flight call, then release.
	<-g.entered
	waitFor(t, "singleflight follower", func() bool {
		snap := s.snapshot()
		return snap.Requests.SingleflightShared == 1
	})
	close(g.release)
	wg.Wait()
	close(results)

	shared := 0
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status = %d", r.status)
		}
		if r.resp.Analysis == nil || r.resp.Analysis.Benchmark != "wordcount" {
			t.Fatalf("bad analysis in %+v", r.resp)
		}
		if r.resp.Shared {
			shared++
		}
	}
	if got := g.count.Load(); got != 1 {
		t.Fatalf("pipeline executions = %d, want 1 (singleflight)", got)
	}
	if shared != 1 {
		t.Errorf("shared responses = %d, want 1", shared)
	}

	// An identical request afterwards is a pure cache hit: still one
	// execution, visible in /metrics.
	resp, b := postAnalyze(t, ts.URL, body)
	var ar client.AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ar.Cached {
		t.Fatalf("third request: status=%d cached=%v", resp.StatusCode, ar.Cached)
	}
	if got := g.count.Load(); got != 1 {
		t.Fatalf("executions after cache hit = %d, want 1", got)
	}
	snap := s.snapshot()
	if snap.Requests.CacheHits != 1 || snap.Requests.CacheMisses != 1 || snap.Requests.SingleflightShared != 1 {
		t.Errorf("metrics = %+v", snap.Requests)
	}
	if snap.Analyses.Completed != 1 {
		t.Errorf("completed analyses = %d, want 1", snap.Analyses.Completed)
	}
}

func TestServerOverloadTypedRejection(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	done := make(chan struct{}, 2)
	post := func(bench string) {
		go func() {
			postAnalyze(t, ts.URL, fmt.Sprintf(`{"benchmark":%q}`, bench))
			done <- struct{}{}
		}()
	}
	post("wordcount")
	<-g.entered // the first request occupies the only worker
	post("sort")
	waitFor(t, "second request queued", func() bool { return s.queue.Depth() == 1 })

	// Worker busy + buffer full → typed 429 with a JSON body.
	resp, body := postAnalyze(t, ts.URL, `{"benchmark":"pagerank"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("429 body is not JSON: %v (%s)", err, body)
	}
	if er.Error != "queue_full" || er.RetryAfterSeconds <= 0 {
		t.Errorf("429 body = %+v, want code queue_full with retry hint", er)
	}
	snap := s.snapshot()
	if snap.Requests.RejectedQueueFull != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", snap.Requests.RejectedQueueFull)
	}

	close(g.release)
	<-done
	<-done
}

func TestServerShutdownDrainsInflightAndFlushesStore(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	s, err := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 8, StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	// Gate the real pipeline so the shutdown provably overlaps an
	// in-flight analysis.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	real := s.analyze
	s.analyze = func(ctx context.Context, job Job) (*counterminer.Analysis, error) {
		entered <- struct{}{}
		<-release
		return real(ctx, job)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	respc := make(chan *http.Response, 1)
	go func() {
		resp, _ := postAnalyze(t, url,
			`{"benchmark":"wordcount","runs":1,"trees":4,"skip_eir":true,"events":["ICACHE.*","L2_RQSTS.*","BR_INST_RETIRED.*"]}`)
		respc <- resp
	}()
	<-entered // the analysis is in flight
	cancel()  // SIGTERM equivalent: drain

	waitFor(t, "health reports draining", func() bool { return s.draining.Load() })
	close(release)

	resp := <-respc
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", resp.StatusCode)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v, want nil on clean drain", err)
	}

	// The store was flushed atomically: it reopens healthy and holds
	// the in-flight run.
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if db.Skipped() != 0 {
		t.Errorf("reopened store skipped %d records", db.Skipped())
	}
	if db.Len() == 0 {
		t.Error("store is empty; the drained analysis was not persisted")
	}
	sums := db.Benchmarks()
	if len(sums) != 1 || sums[0].Benchmark != "wordcount" || sums[0].Runs != 1 {
		t.Errorf("catalog = %+v", sums)
	}
}

func TestServerValidationAndCatalog(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	seed, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(store.Record{
		Meta:   store.RunMeta{Benchmark: "wordcount", RunID: 1, Mode: "MLPX"},
		IPC:    []float64{1, 2},
		Series: map[string][]float64{"ICACHE.MISSES": {3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StorePath: dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	cases := []struct {
		body   string
		status int
		code   string
	}{
		{`{not json`, http.StatusBadRequest, "bad_request"},
		{`{}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"nope"}`, http.StatusNotFound, "unknown_benchmark"},
		{`{"benchmark":"wordcount","colocate":"nope"}`, http.StatusNotFound, "unknown_benchmark"},
		{`{"benchmark":"wordcount","runs":-1}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"wordcount","runs":2,"min_runs":3}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"wordcount","events":["ICACHE.MISSES"]}`, http.StatusBadRequest, "bad_request"},
		{`{"benchmark":"wordcount","bogus_field":1}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, body := postAnalyze(t, ts.URL, tc.body)
		var er client.ErrorResponse
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.body, resp.StatusCode, tc.status)
			continue
		}
		if err := json.Unmarshal(body, &er); err != nil || er.Error != tc.code {
			t.Errorf("%s: body = %s, want code %s", tc.body, body, tc.code)
		}
	}

	// Method discipline.
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze = %d, want 405", resp.StatusCode)
	}

	// Health.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, health)
	}

	// Metrics surface: full stage plan pre-registered, JSON-decodable.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap client.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.StageLatency) != len(counterminer.StageNames()) {
		t.Errorf("metrics stage series = %d, want the full plan", len(snap.StageLatency))
	}
	if snap.Queue.Capacity != 8 || snap.Cache.Capacity != 64 {
		t.Errorf("gauges = %+v / %+v, want defaulted capacities", snap.Queue, snap.Cache)
	}

	// Benchmarks catalog: available list plus the store's read side.
	resp, err = http.Get(ts.URL + "/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var cat client.BenchmarksResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cat.Available) != 16 {
		t.Errorf("available benchmarks = %d, want 16", len(cat.Available))
	}
	if len(cat.Stored) != 1 || cat.Stored[0].Benchmark != "wordcount" ||
		cat.Stored[0].Runs != 1 || cat.Stored[0].Events != 1 {
		t.Errorf("stored catalog = %+v", cat.Stored)
	}
	if cat.Store == nil || cat.Store.Runs != 1 {
		t.Errorf("store stats = %+v", cat.Store)
	}
}

// TestServerEndToEndRealPipeline exercises the production analyze path
// (no gate): one real analysis over a small event subset, served,
// cached, and measured.
func TestServerEndToEndRealPipeline(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	body := `{"benchmark":"wordcount","runs":1,"trees":4,"skip_eir":true,"top_k":3,"events":["ICACHE.*","L2_RQSTS.*","BR_INST_RETIRED.*"]}`
	resp, b := postAnalyze(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var ar client.AnalyzeResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Cached || ar.Analysis == nil || ar.Analysis.Benchmark != "wordcount" {
		t.Fatalf("first response = %+v", ar)
	}
	if len(ar.Analysis.Importance) == 0 || len(ar.Analysis.Stages) == 0 {
		t.Fatalf("analysis missing ranking or stage timings: %+v", ar.Analysis)
	}

	resp, b = postAnalyze(t, ts.URL, body)
	var ar2 client.AnalyzeResponse
	if err := json.Unmarshal(b, &ar2); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ar2.Cached {
		t.Fatalf("repeat response = %d %+v, want cached", resp.StatusCode, ar2)
	}
	snap := s.snapshot()
	if snap.Analyses.Completed != 1 || snap.Requests.CacheHits != 1 {
		t.Errorf("metrics after repeat = %+v / %+v", snap.Analyses, snap.Requests)
	}
	// The stage histograms were fed from Analysis.Stages.
	for _, sh := range snap.StageLatency {
		if sh.Stage == counterminer.StageRank && sh.Count != 1 {
			t.Errorf("rank histogram count = %d, want 1", sh.Count)
		}
	}
}

// TestMetricsSnapshotStoreShardStats: /metrics carries the store's
// shard accounting when a store is configured, and omits the section
// otherwise.
func TestMetricsSnapshotStoreShardStats(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	seed, err := store.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(store.Record{
		Meta:   store.RunMeta{Benchmark: "wordcount", RunID: 1, Mode: "MLPX"},
		IPC:    []float64{1, 2},
		Series: map[string][]float64{"ICACHE.MISSES": {3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StorePath: dbPath, StoreMemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.snapshot()
	if snap.Store == nil {
		t.Fatal("snapshot.Store is nil with a store configured")
	}
	// The startup fingerprint-index rebuild walks every stored run, so
	// the shard is already loaded when the server comes up.
	if snap.Store.Shards != 1 || snap.Store.LoadedShards != 1 || snap.Store.ShardLoads != 1 {
		t.Errorf("store gauges = %+v, want 1 shard, loaded once by the index rebuild", snap.Store)
	}
	if snap.Store.MemBudgetBytes != 1<<20 {
		t.Errorf("mem_budget_bytes = %d, want %d (from StoreMemBytes)", snap.Store.MemBudgetBytes, 1<<20)
	}
	// Touching the record hits the already-resident shard: no new load.
	if _, ok := s.db.Get("wordcount", 1, "MLPX"); !ok {
		t.Fatal("seeded record missing")
	}
	snap = s.snapshot()
	if snap.Store.LoadedShards != 1 || snap.Store.ShardLoads != 1 {
		t.Errorf("after Get: %+v, want loaded_shards=1 shard_loads=1", snap.Store)
	}
	// And the rebuild populated the index gauges.
	if snap.Fingerprint.IndexEntries != 1 || snap.Fingerprint.IndexRebuilds != 1 {
		t.Errorf("fingerprint gauges = %+v, want 1 entry from 1 rebuild", snap.Fingerprint)
	}
	if snap.Fingerprint.IndexVersion == "" || snap.Fingerprint.IndexVersion == "empty" {
		t.Errorf("index version = %q, want a content hash", snap.Fingerprint.IndexVersion)
	}

	bare, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := bare.snapshot(); got.Store != nil {
		t.Errorf("snapshot.Store = %+v without a store, want nil", got.Store)
	}
}

// TestExecuteCountsJobBeforeResult: the queue counts a job as executed
// before its result is published, so a caller that just got a result
// from Execute always finds it in Queue.Executed (and /metrics).
func TestExecuteCountsJobBeforeResult(t *testing.T) {
	s, err := New(Config{Workers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	s.analyze = func(_ context.Context, job Job) (*counterminer.Analysis, error) {
		return &counterminer.Analysis{Benchmark: job.Benchmark}, nil
	}
	for i := 1; i <= 2000; i++ {
		if _, err := s.Execute(context.Background(), Job{AnalyzeRequest: client.AnalyzeRequest{Benchmark: "wordcount", Seed: int64(i)}}); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if got := s.queue.Executed(); got != i {
			t.Fatalf("after %d Execute calls the queue counts %d executed", i, got)
		}
	}
}

// TestWriteJSONUnencodableIs500: a value that cannot be encoded answers
// 500 with a typed error body, not a 200 with an empty one.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != "internal" {
		t.Errorf("body = %q, want an ErrorResponse with code internal", rec.Body.String())
	}
}

// TestServeBoundsSlowClients: the http.Server that Serve runs bounds
// how long a client may take to send its headers and how long an idle
// connection lives, and sets no read or write timeout that would cut
// long SSE streams or large batch bodies.
func TestServeBoundsSlowClients(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Drain()
	hs := s.httpServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; both must be 0", hs.ReadTimeout, hs.WriteTimeout)
	}
}
