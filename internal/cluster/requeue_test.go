package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	counterminer "counterminer"
	"counterminer/internal/serve"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// TestRequeueAfterLeaseExpiryDropsLateCompletion is the failover data
// path end to end: a worker goes silent (one-way partition — its
// heartbeats stop but it keeps computing), its lease expires, the
// coordinator requeues the in-flight job onto another worker, the
// client gets exactly one answer, and the partitioned worker's late
// answer is dropped and counted — never double-delivered.
func TestRequeueAfterLeaseExpiryDropsLateCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent failover test in -short")
	}
	coord, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	join := []string{cn.url}

	// Whichever worker the ring routes the job to becomes the victim:
	// its exec blocks until the test releases it, long past its lease.
	var victim atomic.Value // NodeID
	release := make(chan struct{})
	entered := make(chan NodeID, 2)
	mkExec := func(id NodeID) func(context.Context, serve.Job) (*counterminer.Analysis, error) {
		return func(ctx context.Context, j serve.Job) (*counterminer.Analysis, error) {
			entered <- id
			if victim.CompareAndSwap(nil, id) || victim.Load() == id {
				<-release
			}
			return &counterminer.Analysis{Benchmark: j.Benchmark, Events: 1}, nil
		}
	}
	workers := map[NodeID]*Worker{}
	for _, id := range []NodeID{"w1", "w2"} {
		w, _ := startWorkerNode(t, id, join, nil, "", mkExec(id))
		workers[id] = w
	}
	waitFor(t, "workers registered", func() bool { return coord.Registry().Live() == 2 })

	// Dispatch directly under a long-lived context: the victim's RPC
	// must stay alive past the requeue so its late answer can arrive.
	resc := make(chan error, 1)
	go func() {
		ana, err := coord.Dispatch(context.Background(), serve.Job{Key: "job-1", AnalyzeRequest: client.AnalyzeRequest{Benchmark: "wordcount"}})
		if err == nil && ana == nil {
			err = fmt.Errorf("dispatch returned no analysis")
		}
		resc <- err
	}()

	// The owner enters and blocks; partition it so its lease lapses.
	first := <-entered
	workers[first].Partition(true)

	// The coordinator must declare it dead and requeue onto the other
	// worker, which answers immediately — while the victim still hangs.
	if err := <-resc; err != nil {
		t.Fatalf("analyze during failover: %v", err)
	}
	second := <-entered
	if second == first {
		t.Fatalf("requeue went back to the partitioned worker %s", first)
	}
	stats := coord.Stats()
	if stats.Requeues == 0 || stats.LeaseExpirations == 0 {
		t.Errorf("stats after failover = %+v, want requeues and expirations > 0", stats)
	}

	// Now the partitioned worker comes back and answers late: the
	// completion must be dropped and counted, not delivered twice.
	close(release)
	waitFor(t, "late completion dropped", func() bool {
		return coord.Stats().LateCompletionsDropped == 1
	})
}

// TestReDeliveredJobIsIdempotentOnWorker pins the property requeueing
// leans on: delivering the same content-addressed job to a worker
// twice — a coordinator retrying after a lost reply, or two
// coordinators racing across a failover — executes once, serves the
// second delivery from cache, and leaves the run store with exactly
// the records of a single execution.
func TestReDeliveredJobIsIdempotentOnWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real pipelines in -short")
	}
	job := serve.Job{
		Key: "ignored-recomputed-locally",
		AnalyzeRequest: client.AnalyzeRequest{
			Benchmark: "wordcount",
			Runs:      2,
			Trees:     10,
			SkipEIR:   true,
		},
	}

	run := func(deliveries int, storePath string) *client.Snapshot {
		var srv *serve.Server
		n := startServeNode(t, workerServeConfig(storePath), func(s *serve.Server, _ string) { srv = s })
		for i := 0; i < deliveries; i++ {
			ana, err := srv.Execute(context.Background(), job)
			if err != nil {
				t.Fatalf("delivery %d: %v", i, err)
			}
			if ana == nil || ana.Benchmark != "wordcount" {
				t.Fatalf("delivery %d: bad analysis %+v", i, ana)
			}
		}
		snap, err := client.New(n.url).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n.stop() // flush the store
		return snap
	}

	dir := t.TempDir()
	oncePath := filepath.Join(dir, "once.db")
	twicePath := filepath.Join(dir, "twice.db")
	run(1, oncePath)
	snap := run(3, twicePath)

	// One pipeline execution, the re-deliveries served from cache.
	if snap.Requests.CacheMisses != 1 || snap.Requests.CacheHits != 2 {
		t.Errorf("cache counters = misses %d hits %d, want 1/2",
			snap.Requests.CacheMisses, snap.Requests.CacheHits)
	}
	if snap.Queue.Executed != 1 {
		t.Errorf("queue executed = %d, want 1 (re-delivery must not re-run)", snap.Queue.Executed)
	}

	// The store holds exactly one execution's records — no duplicates,
	// no extras.
	if got, want := storeRecordKeys(t, twicePath), storeRecordKeys(t, oncePath); !sameKeySet(got, want) {
		t.Errorf("store after 3 deliveries has %d records, single execution has %d", len(got), len(want))
	}
}

// storeRecordKeys opens a flushed store and returns its record keys,
// failing the test on any duplicate (benchmark, runID, mode).
func storeRecordKeys(t *testing.T, path string) map[string]bool {
	t.Helper()
	db, err := store.Open(path)
	if err != nil {
		t.Fatalf("open store %s: %v", path, err)
	}
	keys := make(map[string]bool)
	for _, m := range db.List() {
		k := fmt.Sprintf("%s/%d/%s", m.Benchmark, m.RunID, m.Mode)
		if keys[k] {
			t.Fatalf("duplicate record %s in %s", k, path)
		}
		keys[k] = true
	}
	return keys
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestClusterRequeueCarriesCleanerThroughRedispatch pins the
// failover path's cleaner fidelity: a job analysed under a non-default
// cleaner that gets requeued after its owner's lease expires must reach
// the second worker with the same cleaner name. Workers recompute the
// content address from the wire Job, so losing the field here would
// silently serve the re-dispatched client a default-cleaner result.
func TestClusterRequeueCarriesCleanerThroughRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent failover test in -short")
	}
	coord, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	join := []string{cn.url}

	type delivery struct {
		id  NodeID
		job serve.Job
	}
	var victim atomic.Value // NodeID
	release := make(chan struct{})
	defer close(release)
	entered := make(chan delivery, 2)
	mkExec := func(id NodeID) func(context.Context, serve.Job) (*counterminer.Analysis, error) {
		return func(ctx context.Context, j serve.Job) (*counterminer.Analysis, error) {
			entered <- delivery{id, j}
			if victim.CompareAndSwap(nil, id) || victim.Load() == id {
				<-release
			}
			return &counterminer.Analysis{Benchmark: j.Benchmark, Cleaner: j.Cleaner, Events: 1}, nil
		}
	}
	workers := map[NodeID]*Worker{}
	for _, id := range []NodeID{"w1", "w2"} {
		w, _ := startWorkerNode(t, id, join, nil, "", mkExec(id))
		workers[id] = w
	}
	waitFor(t, "workers registered", func() bool { return coord.Registry().Live() == 2 })

	resc := make(chan *counterminer.Analysis, 1)
	go func() {
		ana, err := coord.Dispatch(context.Background(),
			serve.Job{Key: "job-bayes", AnalyzeRequest: client.AnalyzeRequest{Benchmark: "wordcount", Cleaner: "bayes"}})
		if err != nil {
			t.Errorf("dispatch: %v", err)
		}
		resc <- ana
	}()

	first := <-entered
	if first.job.Cleaner != "bayes" {
		t.Fatalf("first delivery cleaner = %q, want bayes", first.job.Cleaner)
	}
	workers[first.id].Partition(true)

	ana := <-resc
	second := <-entered
	if second.id == first.id {
		t.Fatalf("requeue went back to the partitioned worker %s", first.id)
	}
	if second.job.Cleaner != "bayes" {
		t.Fatalf("re-dispatched delivery cleaner = %q, want bayes (cleaner lost across requeue)", second.job.Cleaner)
	}
	if ana == nil || ana.Cleaner != "bayes" {
		t.Fatalf("delivered analysis = %+v, want Cleaner bayes", ana)
	}
}

// TestDispatchContextCancelReturnsPromptly guards the dispatch loop's
// exit paths: a canceled client context must not leave Dispatch hung
// on a dead worker.
func TestDispatchContextCancelReturnsPromptly(t *testing.T) {
	coord, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	release := make(chan struct{})
	defer close(release)
	startWorkerNode(t, "w1", []string{cn.url}, nil, "",
		func(ctx context.Context, j serve.Job) (*counterminer.Analysis, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		})
	waitFor(t, "worker registered", func() bool { return coord.Registry().Live() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := coord.Dispatch(ctx, serve.Job{Key: "k1", AnalyzeRequest: client.AnalyzeRequest{Benchmark: "wordcount"}})
	if err == nil {
		t.Fatal("dispatch with canceled context returned nil error")
	}
}
