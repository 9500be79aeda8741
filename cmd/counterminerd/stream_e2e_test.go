package main

import (
	"context"
	"syscall"
	"testing"
	"time"

	"counterminer/pkg/client"
)

// TestDaemonStreamEndToEnd is the streaming acceptance scenario
// against the real daemon: two interleaved async batches from
// different clients share benchmarks, so the collector memo shows
// cross-batch reuse (builds == distinct profiles); each SSE stream
// yields every job exactly once in completion order; and a consumer
// killed mid-stream resumes via Last-Event-ID and observes the
// identical result set a fresh consumer replays.
func TestDaemonStreamEndToEnd(t *testing.T) {
	url, cA, _, _ := startDaemon(t, "-workers", "1", "-queue", "16")
	ctx := context.Background()
	cB := client.New(url) // a second, independent consumer

	events := []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"}
	job := func(bench string, seed int64) client.AnalyzeRequest {
		return client.AnalyzeRequest{
			Benchmark: bench, Events: events,
			Runs: 2, Trees: 20, SkipEIR: true, Seed: seed,
		}
	}
	// Batch A executes all three of its jobs; batch B's sort/seed-1 job
	// is byte-identical to A's, so it rides A's execution (singleflight
	// or cache) instead of running again.
	stA, err := cA.AnalyzeBatchStream(ctx, []client.AnalyzeRequest{
		job("wordcount", 1), job("sort", 1), job("wordcount", 2),
	})
	if err != nil {
		t.Fatalf("batch A submit: %v", err)
	}
	stB, err := cB.AnalyzeBatchStream(ctx, []client.AnalyzeRequest{
		job("sort", 2), job("wordcount", 3), job("sort", 1),
	})
	if err != nil {
		t.Fatalf("batch B submit: %v", err)
	}

	// Consumer A dies after its first event; a replacement resumes from
	// the recorded cursor.
	seenA := map[int]int{}
	var orderA []int
	if !stA.Next() {
		t.Fatalf("batch A produced no events: %v", stA.Err())
	}
	seenA[stA.Result().Index]++
	orderA = append(orderA, stA.Result().Index)
	cursor := stA.LastEventID()
	stA.Close()

	resumedA := cA.StreamBatch(ctx, stA.Handle())
	resumedA.SetLastEventID(cursor)
	defer resumedA.Close()
	for resumedA.Next() {
		seenA[resumedA.Result().Index]++
		orderA = append(orderA, resumedA.Result().Index)
	}
	if err := resumedA.Err(); err != nil {
		t.Fatalf("resumed consumer A: %v", err)
	}
	if d := resumedA.Done(); d == nil || d.Status != "done" {
		t.Fatalf("batch A terminal event = %+v, want done", resumedA.Done())
	}

	// Consumer B streams uninterrupted.
	seenB := map[int]int{}
	for stB.Next() {
		seenB[stB.Result().Index]++
		if r := stB.Result(); r.Error != nil {
			t.Errorf("batch B job %d failed: %+v", r.Index, r.Error)
		}
	}
	if err := stB.Err(); err != nil {
		t.Fatalf("consumer B: %v", err)
	}
	if d := stB.Done(); d == nil || d.Status != "done" {
		t.Fatalf("batch B terminal event = %+v, want done", stB.Done())
	}

	// Exactly once, each: 3 jobs per handle, no duplicates, no drops —
	// across A's kill-and-resume too.
	for name, seen := range map[string]map[int]int{"A": seenA, "B": seenB} {
		if len(seen) != 3 {
			t.Errorf("batch %s events cover %d jobs (%v), want 3", name, len(seen), seen)
		}
		for idx, n := range seen {
			if n != 1 {
				t.Errorf("batch %s job %d observed %d times, want exactly once", name, idx, n)
			}
		}
	}

	// A fresh consumer replaying A's handle from the start observes the
	// identical result set in the identical completion order.
	replayA := cB.StreamBatch(ctx, stA.Handle())
	defer replayA.Close()
	var orderReplay []int
	for replayA.Next() {
		orderReplay = append(orderReplay, replayA.Result().Index)
	}
	if err := replayA.Err(); err != nil {
		t.Fatalf("replay consumer: %v", err)
	}
	if len(orderReplay) != len(orderA) {
		t.Fatalf("replay yielded %v, kill-and-resume consumer saw %v", orderReplay, orderA)
	}
	for i := range orderA {
		if orderReplay[i] != orderA[i] {
			t.Fatalf("replay order %v diverged from original completion order %v", orderReplay, orderA)
		}
	}

	// Cross-batch reuse on /metrics: 5 distinct analyses executed (B's
	// shared job never re-ran), one generator build per benchmark, and
	// the memo served the rest.
	snap, err := cA.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Analyses.Completed != 5 {
		t.Errorf("analyses completed = %d, want 5 (6 jobs, 1 shared across batches)", snap.Analyses.Completed)
	}
	if snap.Collector.Builds != 2 {
		t.Errorf("generator builds = %d, want 2 (wordcount, sort)", snap.Collector.Builds)
	}
	if snap.Collector.MemoHits == 0 {
		t.Error("generator memo hits = 0; interleaved batches should reuse generators across handles")
	}
	if snap.Stream.HandlesOpened != 2 || snap.Stream.HandlesFinished != 2 {
		t.Errorf("stream handle counters = %+v, want 2 opened / 2 finished", snap.Stream)
	}
}

// TestDaemonStreamShutdownDeliversTerminal pins graceful shutdown on
// an open stream: SIGTERM lands while one job executes and two wait;
// the consumer still receives every completion — the in-flight job's
// analysis, the queued jobs' typed cancellations — and the terminal
// event, and the daemon exits 0.
func TestDaemonStreamShutdownDeliversTerminal(t *testing.T) {
	_, c, exitc, _ := startDaemon(t, "-workers", "1", "-queue", "8")
	ctx := context.Background()

	st, err := c.AnalyzeBatchStream(ctx, []client.AnalyzeRequest{
		{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 201},
		{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 202},
		{Benchmark: "sort", Runs: 2, Trees: 20, Seed: 203},
	})
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	defer st.Close()
	waitFor(t, "slow batch in flight", func() bool {
		snap, err := c.Metrics(ctx)
		return err == nil && snap.Queue.Active == 1 && snap.Queue.Depth >= 1
	})
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("send SIGTERM: %v", err)
	}

	results := map[int]*client.BatchJobResult{}
	for st.Next() {
		r := *st.Result()
		results[r.Index] = &r
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream across shutdown: %v", err)
	}
	if st.Done() == nil {
		t.Fatal("no terminal event across shutdown")
	}
	if len(results) != 3 {
		t.Fatalf("completions across shutdown = %d (%v), want 3", len(results), results)
	}
	if results[0].Error != nil || results[0].Analysis == nil {
		t.Errorf("in-flight job during drain = %+v, want completed analysis", results[0])
	}
	canceled := 0
	for _, i := range []int{1, 2} {
		if results[i].Error != nil && results[i].Error.Error == "canceled" {
			canceled++
		}
	}
	if canceled != 2 {
		t.Errorf("queued jobs canceled = %d of 2, want both via the *CancelError path", canceled)
	}

	select {
	case code := <-exitc:
		if code != 0 {
			t.Fatalf("run() exit code = %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not exit after SIGTERM")
	}
}

// TestDaemonStreamFlagValidation covers the streaming flags' usage
// errors.
func TestDaemonStreamFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-stream-handles", "0"},
		{"-stream-heartbeat", "0s"},
	}
	for _, args := range cases {
		var out, errOut syncBuffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
