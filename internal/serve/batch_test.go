package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	counterminer "counterminer"
	"counterminer/internal/fault"
	"counterminer/pkg/client"
)

func postBatch(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/analyze/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze/batch: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// batchBody marshals a BatchRequest from job literals.
func batchBody(t *testing.T, jobs ...client.AnalyzeRequest) string {
	t.Helper()
	b, err := json.Marshal(client.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchDedupGroupingAndPerJobErrors is the acceptance scenario at
// the serve layer: 8 jobs with 3 exact duplicates and one invalid job
// perform 4 distinct analyses (≤ 5), return 8 per-job results in
// request order, and the invalid job's typed error leaves the other 7
// intact.
func TestBatchDedupGroupingAndPerJobErrors(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
	close(g.release) // no gating; just count executions
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	wc1 := client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 1}
	sort1 := client.AnalyzeRequest{Benchmark: "sort", SkipEIR: true, Seed: 1}
	pr1 := client.AnalyzeRequest{Benchmark: "pagerank", SkipEIR: true, Seed: 1}
	wc2 := client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Seed: 2}
	bad := client.AnalyzeRequest{Benchmark: "no-such-benchmark"}
	body := batchBody(t, wc1, sort1, wc1, pr1, sort1, bad, wc2, wc1)

	resp, b := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, b)
	}
	var br client.BatchResponse
	if err := json.Unmarshal(b, &br); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}

	if len(br.Jobs) != 8 {
		t.Fatalf("job results = %d, want 8", len(br.Jobs))
	}
	for i, jr := range br.Jobs {
		if jr.Index != i {
			t.Errorf("result %d carries index %d; results must keep request order", i, jr.Index)
		}
	}
	// The invalid job fails typed; the other seven succeed.
	if br.Jobs[5].Error == nil || br.Jobs[5].Error.Error != "unknown_benchmark" {
		t.Errorf("invalid job error = %+v, want unknown_benchmark", br.Jobs[5].Error)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 6, 7} {
		if br.Jobs[i].Error != nil {
			t.Errorf("job %d failed: %+v (one bad job must not fail the batch)", i, br.Jobs[i].Error)
		}
		if br.Jobs[i].Analysis == nil {
			t.Errorf("job %d has no analysis", i)
		}
	}
	// Exact duplicates alias their leaders.
	for _, i := range []int{2, 4, 7} {
		if !br.Jobs[i].Deduped {
			t.Errorf("job %d not marked deduped", i)
		}
	}
	if br.Jobs[2].Analysis.Benchmark != "wordcount" || br.Jobs[4].Analysis.Benchmark != "sort" {
		t.Errorf("deduped jobs carry wrong analyses")
	}

	// At most 5 distinct analyses — here exactly 4 (the invalid job
	// never schedules).
	if got := g.count.Load(); got != 4 {
		t.Errorf("pipeline executions = %d, want 4", got)
	}
	want := client.BatchStats{
		Submitted: 8, Deduped: 3, CacheHits: 0, Executed: 4, Errors: 1, Groups: 3,
		// The distinct jobs, in request order.
		ScheduleOrder: []int{0, 1, 3, 6},
	}
	if !reflect.DeepEqual(br.Stats, want) {
		t.Errorf("stats = %+v, want %+v", br.Stats, want)
	}

	// The accounting is visible on /metrics.
	snap := s.snapshot()
	if snap.Batch.Batches != 1 || snap.Batch.Jobs != 8 || snap.Batch.Deduped != 3 ||
		snap.Batch.Executed != 4 || snap.Batch.JobErrors != 1 {
		t.Errorf("batch metrics = %+v", snap.Batch)
	}

	// The identical batch again is served from the cache: still 4
	// executions, 4 batch-level cache hits.
	resp, b = postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", resp.StatusCode, b)
	}
	var br2 client.BatchResponse
	if err := json.Unmarshal(b, &br2); err != nil {
		t.Fatal(err)
	}
	if got := g.count.Load(); got != 4 {
		t.Errorf("executions after repeat = %d, want 4 (cache)", got)
	}
	if br2.Stats.CacheHits != 4 {
		t.Errorf("repeat cache hits = %d, want 4", br2.Stats.CacheHits)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 6, 7} {
		if br2.Jobs[i].Analysis == nil {
			t.Errorf("repeat job %d has no analysis", i)
		}
	}
	if snap := s.snapshot(); snap.Batch.CacheHits != 4 {
		t.Errorf("batch cache-hit metric = %d, want 4", snap.Batch.CacheHits)
	}
}

// TestBatchDeterministicAcrossWorkers pins the batch planner's contract:
// the same batch yields a bit-identical schedule order and per-job
// results at every worker count (1, 2, 8), for both the queue's and
// the analysis engine's parallelism.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	wc := func(seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{
			Benchmark: "wordcount", Runs: 1, Trees: 4, SkipEIR: true, TopK: 3, Seed: seed,
			Events: []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"},
		}
	}
	srt := func(seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{
			Benchmark: "sort", Runs: 1, Trees: 4, SkipEIR: true, TopK: 3, Seed: seed,
			Events: []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"},
		}
	}
	body := batchBody(t,
		wc(1), srt(1), wc(2), wc(1), // one duplicate
		client.AnalyzeRequest{Benchmark: "nope"}, // one typed per-job error
		srt(2),
	)

	var first *client.BatchResponse
	for _, workers := range []int{1, 2, 8} {
		s, err := New(Config{Workers: workers, QueueDepth: 8, CacheSize: 8, AnalysisWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, b := postBatch(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, b)
		}
		var br client.BatchResponse
		if err := json.Unmarshal(b, &br); err != nil {
			t.Fatalf("workers=%d: decode: %v", workers, err)
		}
		s.queue.Drain()
		ts.Close()

		// Scrub observability metadata that naturally differs between
		// runs; everything else must be bit-identical.
		br.ElapsedMs = 0
		for i := range br.Jobs {
			if br.Jobs[i].Analysis != nil {
				br.Jobs[i].Analysis.Stages = nil
			}
		}
		if first == nil {
			first = &br
			continue
		}
		if !reflect.DeepEqual(br.Stats, first.Stats) {
			t.Errorf("workers=%d: stats diverged:\n got %+v\nwant %+v", workers, br.Stats, first.Stats)
		}
		if !reflect.DeepEqual(br.Jobs, first.Jobs) {
			t.Errorf("workers=%d: per-job results diverged from workers=1", workers)
		}
	}
}

// TestBatchChaosPerJobErrorIsolation injects deterministic collection
// faults into one benchmark and proves the failure stays inside its
// jobs: the poisoned benchmark's jobs return typed per-job errors, the
// healthy benchmark's jobs complete, and the outcome replays
// identically on a second identical batch of a fresh server.
func TestBatchChaosPerJobErrorIsolation(t *testing.T) {
	build := func() (*Server, *httptest.Server) {
		s, err := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Wrap the production pipeline: "sort" collects through a
		// fault source whose every run fails permanently; other
		// benchmarks run clean.
		real := s.analyze
		s.analyze = func(ctx context.Context, job Job) (*counterminer.Analysis, error) {
			if job.Benchmark != "sort" {
				return real(ctx, job)
			}
			opts := job.options()
			opts.Source = fault.NewSource(s.coll, fault.Config{Seed: 7, RunFailRate: 1})
			p, err := counterminer.NewPipeline(opts)
			if err != nil {
				return nil, err
			}
			return p.AnalyzeContext(ctx, job.Benchmark)
		}
		return s, httptest.NewServer(s.Handler())
	}

	events := []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"}
	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", Runs: 1, Trees: 4, SkipEIR: true, Seed: 1, Events: events},
		client.AnalyzeRequest{Benchmark: "sort", Runs: 2, Trees: 4, SkipEIR: true, Seed: 1, Events: events},
		client.AnalyzeRequest{Benchmark: "wordcount", Runs: 1, Trees: 4, SkipEIR: true, Seed: 2, Events: events},
		client.AnalyzeRequest{Benchmark: "sort", Runs: 2, Trees: 4, SkipEIR: true, Seed: 1, Events: events}, // dup of the failing job
	)

	var outcomes []string
	for round := 0; round < 2; round++ {
		s, ts := build()
		resp, b := postBatch(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, b)
		}
		var br client.BatchResponse
		if err := json.Unmarshal(b, &br); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		s.queue.Drain()

		for _, i := range []int{0, 2} {
			if br.Jobs[i].Error != nil || br.Jobs[i].Analysis == nil {
				t.Errorf("round %d: healthy job %d poisoned: %+v", round, i, br.Jobs[i].Error)
			}
		}
		for _, i := range []int{1, 3} {
			if br.Jobs[i].Error == nil {
				t.Fatalf("round %d: fault-injected job %d did not fail", round, i)
			}
			if br.Jobs[i].Analysis != nil {
				t.Errorf("round %d: failed job %d carries an analysis", round, i)
			}
		}
		if !br.Jobs[3].Deduped {
			t.Errorf("round %d: duplicate of failing job not deduped", round)
		}
		// Failures are never cached: the duplicate shares its leader's
		// error within the batch, but the key stays re-runnable.
		if _, _, _, leader := s.cache.Acquire(br.Jobs[1].Key); !leader {
			t.Errorf("round %d: failed key cached; a retry must re-lead", round)
		}
		outcomes = append(outcomes, fmt.Sprintf("%s|%s", br.Jobs[1].Error.Error, br.Jobs[3].Error.Error))
	}
	if outcomes[0] != outcomes[1] {
		t.Errorf("fault outcomes diverged across identical rounds: %q vs %q", outcomes[0], outcomes[1])
	}
	if code := strings.Split(outcomes[0], "|")[0]; code != "quorum_not_met" {
		t.Errorf("fault-injected error code = %q, want quorum_not_met", code)
	}
}

// TestBatchOverloadCarriesRetryAfter: when every scheduled job dies at
// admission, the batch answers a single typed 429 with Retry-After —
// exactly like a single-job rejection.
func TestBatchOverloadCarriesRetryAfter(t *testing.T) {
	// One worker, zero buffer: anything beyond the executing job is
	// rejected at admission.
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: -1, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()
	defer close(g.release)

	// Occupy the only worker.
	go func() {
		resp, err := http.Post(ts.URL+"/analyze", "application/json",
			strings.NewReader(`{"benchmark":"wordcount"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-g.entered

	resp, b := postBatch(t, ts.URL, batchBody(t,
		client.AnalyzeRequest{Benchmark: "sort", Seed: 10},
		client.AnalyzeRequest{Benchmark: "pagerank", Seed: 11},
	))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without Retry-After header")
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("429 body not JSON: %v (%s)", err, b)
	}
	if er.Error != "queue_full" || er.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v, want queue_full with retry hint", er)
	}
	if snap := s.snapshot(); snap.Batch.Rejected != 1 {
		t.Errorf("batch rejected metric = %d, want 1", snap.Batch.Rejected)
	}
}

// TestBatchDrainingRejected503: a draining server rejects whole
// batches with a typed 503 + Retry-After before scheduling anything.
func TestBatchDrainingRejected503(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 8})
	close(g.release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	s.draining.Store(true)
	resp, b := postBatch(t, ts.URL, batchBody(t, client.AnalyzeRequest{Benchmark: "wordcount"}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 503 without Retry-After header")
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(b, &er); err != nil || er.Error != "draining" {
		t.Errorf("503 body = %s, want draining", b)
	}
}

// TestBatchValidation exercises the batch endpoint's request-shape
// rejections.
func TestBatchValidation(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 2, CacheSize: 8, BatchMax: 3})
	close(g.release)
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
		{`{"jobs":[]}`, http.StatusBadRequest, "bad_request"},
		{batchBody(t,
			client.AnalyzeRequest{Benchmark: "wordcount", Seed: 1},
			client.AnalyzeRequest{Benchmark: "wordcount", Seed: 2},
			client.AnalyzeRequest{Benchmark: "wordcount", Seed: 3},
			client.AnalyzeRequest{Benchmark: "wordcount", Seed: 4},
		), http.StatusBadRequest, "batch_too_large"},
		{`{"jobs":[{"benchmark":"wordcount"}],"bogus":1}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, body := postBatch(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.body, resp.StatusCode, tc.status)
			continue
		}
		var er client.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error != tc.code {
			t.Errorf("%s: body = %s, want code %s", tc.body, body, tc.code)
		}
	}

	resp, err := http.Get(ts.URL + "/analyze/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze/batch = %d, want 405", resp.StatusCode)
	}
}

// TestBatchMetricsPreRegistered: the whole batch/collector surface is
// present (zeroed) in /metrics before the first batch arrives.
func TestBatchMetricsPreRegistered(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var batchKeys map[string]any
	if err := json.Unmarshal(raw["batch"], &batchKeys); err != nil {
		t.Fatalf("metrics lack a batch object: %v", err)
	}
	for _, k := range []string{
		"batches", "rejected", "jobs", "deduped", "cache_hits", "executed",
		"job_errors",
	} {
		if _, ok := batchKeys[k]; !ok {
			t.Errorf("batch metrics missing pre-registered key %q", k)
		}
	}
	var collKeys map[string]any
	if err := json.Unmarshal(raw["collector"], &collKeys); err != nil {
		t.Fatalf("metrics lack a collector object: %v", err)
	}
	for _, k := range []string{"generator_builds", "memo_hits"} {
		if _, ok := collKeys[k]; !ok {
			t.Errorf("collector metrics missing pre-registered key %q", k)
		}
	}
}

// TestBatchQueuedDispatchesInRequestOrder pins the admission queue's
// order: with the only worker busy, an async batch whose benchmarks
// interleave queues whole in request order and dispatches in that same
// order, first in, first out.
func TestBatchQueuedDispatchesInRequestOrder(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	// Occupy the only worker so the whole batch queues before any of
	// it dispatches.
	go func() {
		resp, err := http.Post(ts.URL+"/analyze", "application/json",
			strings.NewReader(`{"benchmark":"kmeans"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	if got := <-g.entered; got != "kmeans" {
		t.Fatalf("first job = %q, want kmeans", got)
	}

	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "sort", Seed: 1},
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", Seed: 2},
		client.AnalyzeRequest{Benchmark: "pagerank", Seed: 1},
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 2},
	)
	resp, _, b := postAsyncBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", resp.StatusCode, b)
	}
	waitFor(t, "batch queued", func() bool { return s.queue.Depth() == 5 })

	close(g.release)
	waitFor(t, "batch executed", func() bool { return s.queue.Executed() == 6 })
	var order []string
	for i := 0; i < 5; i++ {
		order = append(order, <-g.entered)
	}
	want := []string{"sort", "wordcount", "sort", "pagerank", "wordcount"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want request order %v", order, want)
	}
}

// TestBatchAbandonedSyncBatchCounted: a synchronous batch whose client
// disconnects still runs every job, and is folded into /metrics.batch
// once its last call completes — the same accounting an async batch
// always gets.
func TestBatchAbandonedSyncBatchCounted(t *testing.T) {
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8})
	// Signal when the server has seen the client go away, so the jobs
	// finish strictly after the handler stopped waiting for them.
	gone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/analyze/batch" {
			go func() {
				<-r.Context().Done()
				close(gone)
			}()
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer s.queue.Drain()

	body := batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", Seed: 1},
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 1}, // duplicate
	)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-g.entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled batch request got a response")
	}
	<-gone
	close(g.release)

	waitFor(t, "abandoned batch counted", func() bool { return s.snapshot().Batch.Batches == 1 })
	snap := s.snapshot()
	if snap.Batch.Jobs != 3 || snap.Batch.Deduped != 1 || snap.Batch.Executed != 2 || snap.Batch.JobErrors != 0 {
		t.Errorf("abandoned batch metrics = %+v, want 3 jobs, 1 deduped, 2 executed, 0 errors", snap.Batch)
	}
	if got := g.count.Load(); got != 2 {
		t.Errorf("pipeline executions = %d, want 2", got)
	}
}

// TestBatchSubmitDeadline: every job of a batch runs under the one
// deadline the batch carved from the server budget at arrival, not
// under one of its own, so a sweep holds the workers no longer than a
// single request could.
func TestBatchSubmitDeadline(t *testing.T) {
	const budget = time.Minute
	s, g := newGatedServer(t, Config{Workers: 1, QueueDepth: 8, CacheSize: 8, Budget: budget})
	close(g.release)
	gated := s.analyze
	deadlines := make(chan time.Time, 3)
	s.analyze = func(ctx context.Context, job Job) (*counterminer.Analysis, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Errorf("%s job runs without a deadline", job.Benchmark)
		}
		deadlines <- d
		return gated(ctx, job)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.queue.Drain()

	before := time.Now()
	resp, b := postBatch(t, ts.URL, batchBody(t,
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 1},
		client.AnalyzeRequest{Benchmark: "sort", Seed: 1},
		client.AnalyzeRequest{Benchmark: "wordcount", Seed: 2},
	))
	after := time.Now()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, b)
	}
	first := <-deadlines
	if first.Before(before.Add(budget)) || first.After(after.Add(budget)) {
		t.Errorf("batch deadline %v is not the budget carved at arrival (%v to %v)",
			first, before.Add(budget), after.Add(budget))
	}
	for i := 1; i < 3; i++ {
		if d := <-deadlines; !d.Equal(first) {
			t.Errorf("job %d deadline %v, want the batch's %v", i, d, first)
		}
	}
}
