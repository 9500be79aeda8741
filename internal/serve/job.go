package serve

import (
	"context"
	"errors"
	"net/http"

	counterminer "counterminer"
	"counterminer/internal/clean"
	"counterminer/pkg/client"
)

// Cluster-plane sentinels. They live here, next to the HTTP error
// vocabulary, because serve owns the endpoint contract: whatever the
// node's role, a client sees the same typed rejections.
var (
	// ErrNotLeader reports a request landing on a coordinator that
	// does not hold the leader lease; the client should retry (the
	// same address after an election, or the new leader).
	ErrNotLeader = errors.New("serve: not the cluster leader")
	// ErrNoWorkers reports a coordinator with no live registered
	// workers to dispatch to.
	ErrNoWorkers = errors.New("serve: no live workers registered")
	// ErrNoIndex reports a /classify request on a node that runs
	// without a store: there is no fingerprint index to classify
	// against.
	ErrNoIndex = errors.New("serve: no fingerprint index (the daemon runs without -db)")
)

// KindFingerprint marks a job that collects a benchmark's runs and
// returns only their workload fingerprint (Analysis.Fingerprint is the
// sole populated result field). Fingerprint jobs travel the same
// admission, cache, and dispatch path as analyses — a coordinator
// routes them to workers by the same benchmark-identity grouping key —
// but skip ranking and persistence. The empty kind is a full analysis.
const KindFingerprint = "fingerprint"

// Job is one fully resolved analysis job in wire form: the benchmark
// identity, the resolved event list, and the result-relevant option
// fields. It is the unit the cluster layer moves between nodes — a
// coordinator hands Jobs to a Dispatch function, a worker executes
// them with Execute — and it is content-addressed: Key is the same
// canonical hash the result cache uses, so retries and re-dispatches
// of the same Job are idempotent everywhere results are keyed.
type Job struct {
	// Key is the job's content address (the result-cache key).
	Key string `json:"key"`
	// Kind distinguishes what the job computes: "" is a full analysis,
	// KindFingerprint collects runs and returns only their embedding.
	// It travels on the wire because Execute recomputes the content
	// address locally — dropping it would key a fingerprint job onto
	// the full analysis of the same benchmark.
	Kind string `json:"kind,omitempty"`
	// Benchmark and Colocate are the benchmark identity.
	Benchmark string `json:"benchmark"`
	Colocate  string `json:"colocate,omitempty"`
	// Events is the resolved event list (nil = full catalogue).
	Events []string `json:"events,omitempty"`
	// The result-relevant options, mirroring client.AnalyzeRequest.
	Runs      int   `json:"runs,omitempty"`
	Trees     int   `json:"trees,omitempty"`
	PruneStep int   `json:"prune_step,omitempty"`
	TopK      int   `json:"top_k,omitempty"`
	SkipEIR   bool  `json:"skip_eir,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	MinRuns   int   `json:"min_runs,omitempty"`
	// Cleaner is the canonical cleaner name. It travels on the wire
	// because Execute recomputes the content address locally from the
	// job's content — dropping it here would silently re-key a
	// re-dispatched job onto the default cleaner's result.
	Cleaner string `json:"cleaner,omitempty"`
}

// GroupKey is the job's grouping key: the benchmark identity, the unit
// of collector memoization. The admission queue files jobs under it so
// stream.Scheduler dispatches them adjacently, and the cluster layer
// routes by it so jobs sharing a memoized trace generator land on the
// same worker.
func (j Job) GroupKey() string { return j.Benchmark + "\x00" + j.Colocate }

// jobFromSpec converts a resolved jobSpec into its wire form.
func jobFromSpec(key string, spec jobSpec) Job {
	return Job{
		Key:       key,
		Kind:      spec.kind,
		Benchmark: spec.benchmark,
		Colocate:  spec.colocate,
		Events:    spec.events,
		Runs:      spec.opts.Runs,
		Trees:     spec.opts.Trees,
		PruneStep: spec.opts.PruneStep,
		TopK:      spec.opts.TopK,
		SkipEIR:   spec.opts.SkipEIR,
		Seed:      spec.opts.Seed,
		MinRuns:   spec.opts.MinRuns,
		Cleaner:   spec.opts.CleanOptions.Cleaner,
	}
}

// specFromJob rebuilds the local jobSpec from a wire Job, attaching
// this server's analysis worker count (a speed knob that never changes
// results, so it stays out of the wire form and the content address).
func (s *Server) specFromJob(j Job) jobSpec {
	return jobSpec{
		kind:      j.Kind,
		benchmark: j.Benchmark,
		colocate:  j.Colocate,
		events:    j.Events,
		opts: counterminer.Options{
			Runs:         j.Runs,
			Trees:        j.Trees,
			PruneStep:    j.PruneStep,
			TopK:         j.TopK,
			SkipEIR:      j.SkipEIR,
			Seed:         j.Seed,
			MinRuns:      j.MinRuns,
			CleanOptions: clean.Options{Cleaner: j.Cleaner},
			Workers:      s.cfg.AnalysisWorkers,
		},
	}
}

// SetDispatch replaces local pipeline execution with a remote
// dispatcher: every admitted analysis — single or batch — is handed to
// d as a wire Job instead of running on this node's pipeline. The
// server keeps everything else: admission control, the
// content-addressed cache and singleflight, batch planning, and
// metrics. This is how a coordinator serves the same /analyze contract
// as a standalone daemon while the compute happens on workers.
//
// Call between New and Serve; not safe to swap while serving.
func (s *Server) SetDispatch(d func(ctx context.Context, job Job) (*counterminer.Analysis, error)) {
	s.analyze = func(ctx context.Context, spec jobSpec) (*counterminer.Analysis, error) {
		return d(ctx, jobFromSpec(specKey(spec), spec))
	}
}

// Execute runs one wire Job through this node's ordinary serving
// machinery: the content-addressed cache (hit or singleflight), the
// admission queue (a worker node under load rejects with ErrQueueFull
// exactly like a standalone daemon), and the pipeline, with metrics
// observed along the way. Because the cache key is recomputed locally
// from the job's content, re-deliveries of the same Job — a
// coordinator retrying after a lost reply, or two coordinators racing
// across a failover — deduplicate onto one execution per node.
func (s *Server) Execute(ctx context.Context, job Job) (*counterminer.Analysis, error) {
	s.metrics.IncRequest()
	spec := s.specFromJob(job)
	ana, ok, call, _ := s.acquire(specKey(spec), spec)
	if ok {
		return ana, nil
	}
	select {
	case <-call.Done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return call.Val, call.Err
}

// Route mounts an extra handler on the server's HTTP surface (the
// cluster layer adds its /cluster/* RPC endpoints this way). Call
// between New and Serve.
func (s *Server) Route(pattern string, h http.Handler) { s.extra[pattern] = h }

// SetReady adds an extra readiness check consulted by GET /readyz
// alongside the built-in drain check: a coordinator reports whether it
// holds the leader lease and sees live workers, a worker whether it is
// registered. Call between New and Serve.
func (s *Server) SetReady(f func() error) { s.ready = f }

// SetClusterStats attaches the cluster role's counters to GET
// /metrics (Snapshot.Cluster). Call between New and Serve.
func (s *Server) SetClusterStats(f func() client.ClusterCounters) { s.clusterStats = f }
