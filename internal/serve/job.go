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

// Job is one fully resolved analysis job: a client.AnalyzeRequest in
// resolved form — Events holds resolved event names (nil means the
// full catalogue) and Cleaner the canonical cleaner name — keyed by its
// content address. It is the unit the cluster layer moves between
// nodes — a coordinator hands Jobs to a Dispatch function, a worker
// executes them with Execute — and Key is the same canonical hash the
// result cache uses, so retries and re-dispatches of the same Job are
// idempotent everywhere results are keyed. On the wire the request's
// fields sit beside key and kind in one flat JSON object.
type Job struct {
	// Key is the job's content address (the result-cache key).
	Key string `json:"key"`
	// Kind distinguishes what the job computes: "" is a full analysis,
	// KindFingerprint collects runs and returns only their embedding.
	// It travels on the wire because Execute recomputes the content
	// address locally — dropping it would key a fingerprint job onto
	// the full analysis of the same benchmark.
	Kind string `json:"kind,omitempty"`
	// AnalyzeRequest carries the benchmark identity and every
	// result-relevant option. Cleaner travels on the wire for the same
	// reason Kind does: dropping it would silently re-key a
	// re-dispatched job onto the default cleaner's result.
	client.AnalyzeRequest
}

// GroupKey is the job's grouping key: the benchmark identity, the unit
// of collector memoization. The admission queue files jobs under it so
// stream.Scheduler dispatches them adjacently, and the cluster layer
// routes by it so jobs sharing a memoized trace generator land on the
// same worker.
func (j Job) GroupKey() string { return j.Benchmark + "\x00" + j.Colocate }

// options maps the job's request fields onto pipeline options: the one
// place a request option becomes a pipeline option, shared by
// runPipeline and the content address.
func (j Job) options() counterminer.Options {
	return counterminer.Options{
		Events:       j.Events,
		Runs:         j.Runs,
		Trees:        j.Trees,
		PruneStep:    j.PruneStep,
		TopK:         j.TopK,
		SkipEIR:      j.SkipEIR,
		Seed:         j.Seed,
		MinRuns:      j.MinRuns,
		CleanOptions: clean.Options{Cleaner: j.Cleaner},
	}
}

// keyed returns j with Key set to its content address: the canonical
// request hash, prefixed with the job kind so a fingerprint job and the
// full analysis of the same benchmark never share a cache entry.
func (j Job) keyed() Job {
	j.Key = Key(j.Benchmark, j.Colocate, j.Events, j.options())
	if j.Kind != "" {
		j.Key = j.Kind + ":" + j.Key
	}
	return j
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
	s.analyze = d
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
	ana, ok, call, _ := s.acquire(job.keyed())
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
