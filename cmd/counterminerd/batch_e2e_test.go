package main

import (
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// startDaemon boots run() on an ephemeral port and returns the base
// URL, a typed client, and the exit-code channel.
func startDaemon(t *testing.T, args ...string) (string, *client.Client, chan int, *syncBuffer) {
	t.Helper()
	var out, errOut syncBuffer
	exitc := make(chan int, 1)
	go func() {
		exitc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errOut)
	}()
	addrRE := regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)
	var url string
	waitFor(t, "listening address", func() bool {
		m := addrRE.FindStringSubmatch(out.String())
		if m == nil {
			return false
		}
		url = "http://" + m[1]
		return true
	})
	return url, client.New(url), exitc, &out
}

// TestDaemonBatchEndToEnd is the batch acceptance scenario against the
// real daemon, driven entirely through pkg/client: a batch of 8 jobs
// with 3 exact duplicates and one invalid job performs 4 distinct
// analyses (≤ 5, verified via the /metrics dedup and collector-memo
// counters), returns 8 per-job results in request order with a typed
// error for the invalid job; then SIGTERM lands mid-batch and the
// in-flight job completes while queued ones are canceled through the
// pipeline's *CancelError path, with the store intact afterwards.
func TestDaemonBatchEndToEnd(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "runs.db")
	url, c, exitc, out := startDaemon(t, "-db", dbPath, "-workers", "1", "-queue", "8", "-batch-max", "16")
	ctx := context.Background()

	// Part 1: dedup + grouping + per-job error isolation.
	events := []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"}
	job := func(bench string, seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{
			Benchmark: bench, Events: events,
			Runs: 2, Trees: 20, SkipEIR: true, Seed: seed,
		}
	}
	jobs := []client.AnalyzeRequest{
		job("wordcount", 1),          // 0: leader
		job("sort", 1),               // 1: leader
		job("wordcount", 1),          // 2: duplicate of 0
		job("pagerank", 1),           // 3: leader
		job("sort", 1),               // 4: duplicate of 1
		{Benchmark: "no-such-bench"}, // 5: typed per-job error
		job("wordcount", 2),          // 6: leader (same group as 0)
		job("wordcount", 1),          // 7: duplicate of 0
	}
	br, err := c.AnalyzeBatch(ctx, jobs)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(br.Jobs) != 8 {
		t.Fatalf("batch returned %d results, want 8", len(br.Jobs))
	}
	for i, jr := range br.Jobs {
		if jr.Index != i {
			t.Errorf("result %d has index %d; want request order", i, jr.Index)
		}
	}
	if br.Jobs[5].Error == nil || br.Jobs[5].Error.Error != "unknown_benchmark" {
		t.Errorf("invalid job result = %+v, want typed unknown_benchmark", br.Jobs[5].Error)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 6, 7} {
		if br.Jobs[i].Error != nil || br.Jobs[i].Analysis == nil {
			t.Errorf("job %d = err %+v, analysis %v; want clean success", i, br.Jobs[i].Error, br.Jobs[i].Analysis != nil)
		} else if len(br.Jobs[i].Analysis.Importance) == 0 {
			t.Errorf("job %d analysis has no importance ranking", i)
		}
	}
	for _, i := range []int{2, 4, 7} {
		if !br.Jobs[i].Deduped {
			t.Errorf("duplicate job %d not marked deduped", i)
		}
	}
	if br.Stats.Deduped != 3 || br.Stats.Executed != 4 || br.Stats.Errors != 1 || br.Stats.Groups != 3 {
		t.Errorf("batch stats = %+v, want 3 deduped / 4 executed / 1 error / 3 groups", br.Stats)
	}

	// The daemon's counters agree: 4 distinct analyses (≤ 5), one
	// trace-generator build per profile with the rest served by the
	// memo — the reuse the benchmark grouping exists for.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Batch.Batches != 1 || snap.Batch.Jobs != 8 || snap.Batch.Deduped != 3 ||
		snap.Batch.Executed != 4 || snap.Batch.JobErrors != 1 {
		t.Errorf("batch counters = %+v", snap.Batch)
	}
	if snap.Analyses.Completed != 4 {
		t.Errorf("analyses completed = %d, want 4 (8 jobs, 3 dups, 1 invalid)", snap.Analyses.Completed)
	}
	if snap.Collector.Builds != 3 {
		t.Errorf("generator builds = %d, want 3 (wordcount, sort, pagerank)", snap.Collector.Builds)
	}
	if snap.Collector.MemoHits == 0 {
		t.Error("generator memo hits = 0; grouped dispatch should reuse generators")
	}

	// An identical batch is all cache hits: no new executions.
	br2, err := c.AnalyzeBatch(ctx, jobs)
	if err != nil {
		t.Fatalf("repeat AnalyzeBatch: %v", err)
	}
	if br2.Stats.CacheHits != 4 || br2.Stats.Executed != 0 {
		t.Errorf("repeat stats = %+v, want 4 cache hits / 0 executed", br2.Stats)
	}

	// Part 2: SIGTERM mid-batch. Three slow distinct jobs on one
	// worker: the first is in flight, the rest queued, when the signal
	// lands. Drain lets the in-flight job finish and cancels the queued
	// ones through the *CancelError path.
	type batchResult struct {
		br  *client.BatchResponse
		err error
	}
	slowc := make(chan batchResult, 1)
	go func() {
		// No retries: the drain rejection must surface, not be retried
		// against a dying server.
		br, err := client.New(url, client.WithMaxRetries(0)).AnalyzeBatch(ctx, []client.AnalyzeRequest{
			{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 201},
			{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 202},
			{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 203},
		})
		slowc <- batchResult{br, err}
	}()
	waitFor(t, "slow batch in flight", func() bool {
		snap, err := c.Metrics(ctx)
		return err == nil && snap.Queue.Active == 1 && snap.Queue.Depth >= 1
	})
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("send SIGTERM: %v", err)
	}

	r := <-slowc
	if r.err != nil {
		t.Fatalf("mid-batch shutdown: AnalyzeBatch error %v, want per-job results", r.err)
	}
	if r.br.Jobs[0].Error != nil || r.br.Jobs[0].Analysis == nil {
		t.Errorf("in-flight job during drain = %+v, want completed analysis", r.br.Jobs[0].Error)
	}
	for _, i := range []int{1, 2} {
		e := r.br.Jobs[i].Error
		if e == nil || e.Error != "canceled" {
			t.Fatalf("queued job %d during drain = %+v, want typed canceled", i, e)
		}
		if !strings.Contains(e.Message, "canceled during Collect") {
			t.Errorf("queued job %d message = %q, want the *CancelError path (canceled during Collect)", i, e.Message)
		}
	}

	select {
	case code := <-exitc:
		if code != 0 {
			t.Fatalf("run() exit code = %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained, store flushed") {
		t.Errorf("stdout missing drain confirmation: %q", out.String())
	}

	// The store reopens intact and holds every completed run.
	db, err := store.Open(dbPath)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	if db.Skipped() != 0 {
		t.Errorf("store skipped %d records on reopen, want 0", db.Skipped())
	}
	names := map[string]bool{}
	for _, s := range db.Benchmarks() {
		names[s.Benchmark] = true
	}
	for _, want := range []string{"wordcount", "sort", "pagerank"} {
		if !names[want] {
			t.Errorf("store lost benchmark %q (have %v)", want, names)
		}
	}
}

// TestDaemonBatchFlagValidation covers the new flags' usage errors.
func TestDaemonBatchFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-batch-max", "0"},
		{"-batch-max", "-4"},
	}
	for _, args := range cases {
		var out, errOut syncBuffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
