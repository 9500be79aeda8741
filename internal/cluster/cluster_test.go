package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	counterminer "counterminer"
	"counterminer/internal/fault"
	"counterminer/internal/serve"
	"counterminer/pkg/client"
)

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testNode is one serve.Server running its full lifecycle on a real
// listener (so graceful drain and store flush happen on stop).
type testNode struct {
	srv  *serve.Server
	url  string
	stop func()
}

// startServeNode listens first (so configure sees the resolved URL for
// advertising), builds the server, lets configure mount cluster wiring,
// and serves until stopped.
func startServeNode(t *testing.T, cfg serve.Config, configure func(srv *serve.Server, url string)) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	if configure != nil {
		configure(srv, url)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("serve on %s: %v", url, err)
			}
		})
	}
	t.Cleanup(stop)
	waitFor(t, "node "+url+" serving", func() bool {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})
	return &testNode{srv: srv, url: url, stop: stop}
}

// workerServeConfig is the serve shape every test worker runs with.
func workerServeConfig(storePath string) serve.Config {
	return serve.Config{Workers: 2, QueueDepth: 32, CacheSize: 64, StorePath: storePath}
}

// startWorkerNode runs a worker-role node: a full serve.Server whose
// Execute backs the exec RPC (exec overrides it for tests that need a
// scripted worker), registering and heartbeating against join.
func startWorkerNode(t *testing.T, id NodeID, join []string, chaos *fault.NodeChaos, storePath string,
	exec func(context.Context, serve.Job) (*counterminer.Analysis, error)) (*Worker, *testNode) {
	t.Helper()
	var w *Worker
	n := startServeNode(t, workerServeConfig(storePath), func(srv *serve.Server, url string) {
		run := exec
		if run == nil {
			run = srv.Execute
		}
		var err error
		w, err = NewWorker(WorkerConfig{
			ID:        id,
			Advertise: url,
			Join:      join,
			Heartbeat: 40 * time.Millisecond,
			Exec:      run,
			Chaos:     chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetReady(w.Ready)
		srv.SetClusterStats(w.Stats)
		for p, h := range w.Routes() {
			srv.Route(p, h)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go w.Run(ctx)
	return w, n
}

// startCoordinatorNode runs a coordinator-role node. elector may be
// nil (sole coordinator, always leading); caller may be nil (plain
// HTTP). The returned cancel stops the coordinator's background loops
// (reaper and elector) without stopping its HTTP surface — the soak
// test uses it to simulate a coordinator whose election loop dies.
func startCoordinatorNode(t *testing.T, id NodeID, elector *Elector, caller Caller) (*Coordinator, *testNode, context.CancelFunc) {
	t.Helper()
	var coord *Coordinator
	n := startServeNode(t, serve.Config{Workers: 4, QueueDepth: 64, CacheSize: 64}, func(srv *serve.Server, url string) {
		var err error
		coord, err = NewCoordinator(CoordinatorConfig{
			ID:        id,
			Elector:   elector,
			WorkerTTL: 400 * time.Millisecond,
			Caller:    caller,
			// Generous retry budget: chaos tests inject enough RPC loss
			// that the production default would flake.
			MaxAttempts: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetDispatch(coord.Dispatch)
		srv.SetReady(coord.Ready)
		srv.SetClusterStats(coord.Stats)
		for p, h := range coord.Routes() {
			srv.Route(p, h)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go coord.Run(ctx)
	if elector != nil {
		go elector.Run(ctx)
	}
	return coord, n, cancel
}

// scrub serializes an analysis with its timing metadata removed —
// the identity the determinism contract is stated over.
func scrub(t *testing.T, a *counterminer.Analysis) string {
	t.Helper()
	if a == nil {
		t.Fatal("scrub: nil analysis")
	}
	c := *a
	c.Stages = nil
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// soakJobs is the shared job list: several benchmarks (so routing
// spreads over the ring) at the cheap settings the e2e tests use.
func soakJobs() []client.AnalyzeRequest {
	names := []string{"wordcount", "sort", "pagerank", "kmeans", "scan", "bayes"}
	jobs := make([]client.AnalyzeRequest, 0, len(names))
	for _, b := range names {
		jobs = append(jobs, client.AnalyzeRequest{
			Benchmark: b, Runs: 2, Trees: 20, SkipEIR: true,
			Events: []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"},
		})
	}
	return jobs
}

// goldenAnalyses runs jobs on a standalone server and returns their
// scrubbed identities by benchmark, plus the store's record keys.
func goldenAnalyses(t *testing.T, jobs []client.AnalyzeRequest, storePath string) map[string]string {
	t.Helper()
	n := startServeNode(t, workerServeConfig(storePath), nil)
	c := client.New(n.url)
	out := make(map[string]string, len(jobs))
	for _, job := range jobs {
		res, err := c.Analyze(context.Background(), job)
		if err != nil {
			t.Fatalf("standalone analyze %s: %v", job.Benchmark, err)
		}
		out[job.Benchmark] = scrub(t, res.Analysis)
	}
	n.stop() // flush the store before the caller reads it
	return out
}

func TestClusterEndToEndMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e in -short")
	}
	jobs := soakJobs()[:4]
	golden := goldenAnalyses(t, jobs, "")

	coord, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	join := []string{cn.url}
	w1, _ := startWorkerNode(t, "w1", join, nil, "", nil)
	w2, _ := startWorkerNode(t, "w2", join, nil, "", nil)
	waitFor(t, "both workers registered", func() bool { return coord.Registry().Live() == 2 })

	c := client.New(cn.url)
	// Run the sweep through the coordinator's batch endpoint: planner,
	// cache, and dispatch all engaged.
	batch, err := c.AnalyzeBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("cluster batch: %v", err)
	}
	for i, jr := range batch.Jobs {
		if jr.Error != nil {
			t.Fatalf("job %d (%s): %+v", i, jobs[i].Benchmark, jr.Error)
		}
		if got := scrub(t, jr.Analysis); got != golden[jobs[i].Benchmark] {
			t.Errorf("benchmark %s: cluster analysis differs from standalone", jobs[i].Benchmark)
		}
	}

	// Every unique job executed exactly once somewhere on the fleet.
	total := w1.Stats().ExecsServed + w2.Stats().ExecsServed
	if total != uint64(len(jobs)) {
		t.Errorf("fleet execs = %d, want %d", total, len(jobs))
	}

	// The coordinator is ready and reports its fleet.
	stats := coord.Stats()
	if !stats.Leading || stats.WorkersLive != 2 || stats.Dispatches < uint64(len(jobs)) {
		t.Errorf("coordinator stats = %+v", stats)
	}
	if err := coord.Ready(); err != nil {
		t.Errorf("coordinator unready: %v", err)
	}
}

func TestCoordinatorWithoutWorkersRejectsTyped(t *testing.T) {
	_, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	c := client.New(cn.url, client.WithMaxRetries(0))
	_, err := c.Analyze(context.Background(), client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Trees: 20, Runs: 2})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Code != "no_workers" || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 no_workers", err)
	}
	if !apiErr.Temporary() {
		t.Error("no_workers should be retryable")
	}
}

// TestErrorCodesSurviveTheWorkerHop: a worker's error, encoded on the
// wire and decoded by the coordinator, maps back to the status and
// code of its sentinel, for every word of the serving layer's error
// vocabulary.
func TestErrorCodesSurviveTheWorkerHop(t *testing.T) {
	for _, c := range serve.ErrorCodes {
		status, code := serve.ErrorStatus(errorFromWire(wireError(fmt.Errorf("x: %w", c.Err))))
		if status != c.Status || code != c.Code {
			t.Errorf("%s: decoded as %d %s, want %d %s", c.Code, status, code, c.Status, c.Code)
		}
	}
}

func TestFollowerCoordinatorAnswersNotLeader(t *testing.T) {
	// An elector that never steps never leaves follower.
	elector, err := NewElector(ElectorConfig{ID: "c2", Store: NewMemoryLease(), TTL: time.Hour, Every: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var coord *Coordinator
	n := startServeNode(t, serve.Config{Workers: 2, QueueDepth: 8, CacheSize: 8}, func(srv *serve.Server, url string) {
		coord, err = NewCoordinator(CoordinatorConfig{ID: "c2", Elector: elector})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetDispatch(coord.Dispatch)
		srv.SetReady(coord.Ready)
		for p, h := range coord.Routes() {
			srv.Route(p, h)
		}
	})
	c := client.New(n.url, client.WithMaxRetries(0))
	_, aerr := c.Analyze(context.Background(), client.AnalyzeRequest{Benchmark: "wordcount", SkipEIR: true, Trees: 20, Runs: 2})
	var apiErr *client.APIError
	if !asAPIError(aerr, &apiErr) || apiErr.Code != "not_leader" || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 not_leader", aerr)
	}

	// A follower also refuses registrations, pointing workers onward.
	var resp RegisterResponse
	if err := (&HTTPCaller{}).Call(context.Background(), n.url, "register",
		RegisterRequest{ID: "w1", Addr: "http://x"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted || !resp.NotLeader {
		t.Fatalf("follower register response = %+v", resp)
	}

	// And /readyz reports why.
	ready, err := c.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ready.Status != "unready" || len(ready.Reasons) == 0 {
		t.Fatalf("follower readiness = %+v", ready)
	}
}

func TestWorkerTermFenceRejectsDeposedCoordinator(t *testing.T) {
	w, wn := startWorkerNode(t, "w1", []string{"http://127.0.0.1:1"}, nil, "",
		func(ctx context.Context, j serve.Job) (*counterminer.Analysis, error) {
			return &counterminer.Analysis{Benchmark: j.Benchmark}, nil
		})

	post := func(term uint64) (*http.Response, []byte) {
		body, _ := json.Marshal(ExecRequest{Job: serve.Job{Key: "k", AnalyzeRequest: client.AnalyzeRequest{Benchmark: "b"}}, Term: term})
		resp, err := http.Post(wn.url+"/cluster/exec", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Term 5 executes and raises the fence.
	if resp, body := post(5); resp.StatusCode != http.StatusOK {
		t.Fatalf("term 5 exec: %d %s", resp.StatusCode, body)
	}
	// A deposed coordinator at term 4 is fenced out.
	resp, body := post(4)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale term exec: %d %s, want 409", resp.StatusCode, body)
	}
	var we struct {
		Error string `json:"error"`
	}
	json.Unmarshal(body, &we)
	if we.Error != "stale_term" {
		t.Fatalf("stale term code = %q", we.Error)
	}
	if w.Stats().StaleTermRejected != 1 {
		t.Errorf("stale-term counter = %d, want 1", w.Stats().StaleTermRejected)
	}
	// A newer term is welcome and re-raises the fence.
	if resp, body := post(6); resp.StatusCode != http.StatusOK {
		t.Fatalf("term 6 exec: %d %s", resp.StatusCode, body)
	}
	if got := w.Stats().Term; got != 6 {
		t.Errorf("observed term = %d, want 6", got)
	}
}

// TestSeededWorkerKillFailsOverMidJob pins the kill path end to end,
// deterministically: the job is aimed at the chaos-doomed worker (ring
// placement is a pure function of membership, so the test can compute
// the owner), the worker kills itself on delivery, and the coordinator
// drops it and re-dispatches to the survivor without the client ever
// seeing a failure.
func TestSeededWorkerKillFailsOverMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e in -short")
	}
	coord, cn, _ := startCoordinatorNode(t, "coord", nil, nil)
	join := []string{cn.url}
	w1, _ := startWorkerNode(t, "w1", join, nil, "", nil)
	chaos := fault.NewNodeChaos(fault.NodeConfig{Seed: 42, WorkerKillRate: 1})
	w2, _ := startWorkerNode(t, "w2", join, chaos, "", nil)
	waitFor(t, "workers registered", func() bool { return coord.Registry().Live() == 2 })

	// Aim at whatever the ring gives the doomed worker.
	ring := NewRing()
	ring.Add("w1")
	ring.Add("w2")
	var target string
	for _, b := range []string{"wordcount", "sort", "pagerank", "kmeans", "scan", "bayes", "join", "aggregation"} {
		if owner, _ := ring.Lookup(b + "\x00"); owner == "w2" {
			target = b
			break
		}
	}
	if target == "" {
		t.Skip("ring routed no catalogue benchmark to w2 (hash layout changed)")
	}

	c := client.New(cn.url, client.WithMaxRetries(0))
	res, err := c.Analyze(context.Background(), client.AnalyzeRequest{
		Benchmark: target, Runs: 2, Trees: 20, SkipEIR: true,
		Events: []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"},
	})
	if err != nil {
		t.Fatalf("analyze through a mid-job kill: %v", err)
	}
	if res.Analysis == nil || res.Analysis.Benchmark != target {
		t.Fatalf("bad analysis %+v", res.Analysis)
	}
	if !w2.Killed() {
		t.Error("doomed worker survived delivery")
	}
	if w1.Stats().ExecsServed == 0 {
		t.Error("survivor never executed the requeued job")
	}
	stats := coord.Stats()
	if stats.Requeues == 0 || stats.WorkersLive != 1 {
		t.Errorf("coordinator stats after kill = %+v, want requeues>0 and 1 live worker", stats)
	}
}

// asAPIError unwraps err into a typed *APIError.
func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}
