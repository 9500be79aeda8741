// Package serve is counterminerd: CounterMiner's long-running analysis
// service. It puts a network front door on the AnalyzeContext pipeline
// with four cooperating parts:
//
//   - an admission-controlled job queue (Queue): a bounded buffer plus
//     a fixed worker pool built on internal/parallel, per-job deadlines
//     derived from the server's request budget, and typed 429/503
//     rejections when full — overload sheds load instead of buffering
//     itself to death;
//   - a content-addressed result cache (Cache): requests are
//     canonicalized and hashed (benchmark identity + every
//     result-relevant Options field), completed analyses live in an
//     LRU, and singleflight deduplication makes N concurrent identical
//     requests cost one pipeline execution;
//   - a metrics surface: GET /healthz, GET /metrics (JSON counters,
//     queue/cache gauges, and per-stage latency histograms fed from
//     Analysis.Stages), and GET /benchmarks (the catalog, backed by
//     the store's read side);
//   - lifecycle integration: Serve(ctx, ln) drains gracefully when the
//     context is canceled — in-flight analyses finish, queued ones are
//     canceled through the pipeline's *CancelError path, and the store
//     is flushed atomically before the listener closes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	counterminer "counterminer"
	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fault"
	"counterminer/internal/fingerprint"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/internal/stream"
	"counterminer/pkg/client"
)

// Config sizes the service. The zero value of every field selects a
// sensible default (see withDefaults).
type Config struct {
	// Workers is how many analyses execute concurrently (default 2).
	Workers int
	// QueueDepth is how many admitted jobs may wait beyond the
	// executing ones before requests are rejected with 429 (default 8).
	// Negative admits a job only when a worker is idle.
	QueueDepth int
	// CacheSize is the result cache's LRU capacity in completed
	// analyses (default 64). Negative keeps singleflight deduplication
	// but retains nothing.
	CacheSize int
	// Budget is the per-request compute deadline, applied from
	// admission (queue wait included) so a request can never hold a
	// worker longer than the operator allows (default 2m).
	Budget time.Duration
	// ShutdownGrace bounds how long Serve waits for in-flight HTTP
	// exchanges after the queue has drained (default 15s).
	ShutdownGrace time.Duration
	// StorePath, when non-empty, persists every collected run to the
	// two-level store at that path and backs the /benchmarks catalog.
	StorePath string
	// StoreMemBytes bounds the store's resident second-level series
	// bytes: clean shards beyond the budget evict least-recently-used
	// and reload lazily on next touch (0 = unlimited).
	StoreMemBytes int64
	// AnalysisWorkers is Options.Workers for each pipeline execution
	// (default 0 = GOMAXPROCS). It never changes results, only speed.
	AnalysisWorkers int
	// BatchMax caps the jobs one /analyze/batch request may carry
	// (default 64).
	BatchMax int
	// DefaultCleaner selects the Clean-stage strategy for requests that
	// do not name one (default clean.DefaultCleaner). Must be a
	// registered cleaner name; New rejects anything else.
	DefaultCleaner string
	// StreamHandles caps how many async batch handles may be open at
	// once; further POST /analyze/batch?async=1 requests answer 429
	// (default 32). Twice as many finished handles are retained for
	// late polling before expiring.
	StreamHandles int
	// StreamHeartbeat paces the SSE comment heartbeats that keep idle
	// streams alive through proxies (default 10s).
	StreamHeartbeat time.Duration
}

// ErrConfig reports an invalid Config field. New wraps it so callers
// (the CLI flag layer in particular) can distinguish a misconfigured
// server from an environmental failure like an unreadable store.
var ErrConfig = errors.New("serve: invalid configuration")

// validate rejects Config fields whose negative values have no
// defined meaning. QueueDepth and CacheSize encode "none" as negatives
// by contract; the others do not, and a negative would otherwise fall
// through to a surprising default (an ignored memory budget, for one).
func (c Config) validate() error {
	if c.StoreMemBytes < 0 {
		return fmt.Errorf("%w: StoreMemBytes must be >= 0, got %d", ErrConfig, c.StoreMemBytes)
	}
	if c.StreamHandles < 0 {
		return fmt.Errorf("%w: StreamHandles must be >= 0, got %d", ErrConfig, c.StreamHandles)
	}
	if c.StreamHeartbeat < 0 {
		return fmt.Errorf("%w: StreamHeartbeat must be >= 0, got %v", ErrConfig, c.StreamHeartbeat)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 8
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 64
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	if c.Budget <= 0 {
		c.Budget = 2 * time.Minute
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 15 * time.Second
	}
	switch {
	case c.BatchMax == 0:
		c.BatchMax = 64
	case c.BatchMax < 0:
		c.BatchMax = 1
	}
	if c.DefaultCleaner == "" {
		c.DefaultCleaner = clean.DefaultCleaner
	}
	if c.StreamHandles == 0 {
		c.StreamHandles = 32
	}
	if c.StreamHeartbeat == 0 {
		c.StreamHeartbeat = 10 * time.Second
	}
	return c
}

// Server is the counterminerd service: one shared collector (so
// per-profile trace generators are built once and memoized across
// requests), one shared store handle, and the queue/cache/metrics trio
// in front of the pipeline.
type Server struct {
	cfg      Config
	cat      *sim.Catalogue
	coll     *collector.Collector
	source   fault.RunSource
	db       *store.DB
	queue    *Queue
	cache    *Cache[*counterminer.Analysis]
	metrics  *Metrics
	draining atomic.Bool

	// streams is the async batch-handle registry: open handles, their
	// event logs and subscribers, and the /metrics stream section.
	streams *stream.Registry

	// fpIndex is the workload fingerprint index behind POST /classify:
	// one entry per stored run, rebuilt from the store at startup and
	// then upserted run by run as indexingSink persists them. nil on a
	// node without a store — such a node answers /classify with 503
	// "no_index".
	fpIndex *fingerprint.Index
	// persistMu pairs each store write with its index upsert (see
	// indexingSink.Put), one lock per stripe of benchmark names.
	persistMu [persistStripes]sync.Mutex
	// fpCache content-addresses classifications; the key includes the
	// index version, so a rebuild naturally orphans stale entries.
	fpCache *Cache[*client.Classification]

	// analyze executes one resolved job; tests substitute it to make
	// concurrency scenarios deterministic, and SetDispatch replaces it
	// with a cluster dispatcher on coordinators.
	analyze func(ctx context.Context, job Job) (*counterminer.Analysis, error)

	// extra holds additional routes (the cluster RPC surface); ready
	// and clusterStats are the cluster role's readiness check and
	// metrics contribution. All are wired between New and Serve.
	extra        map[string]http.Handler
	ready        func() error
	clusterStats func() client.ClusterCounters
}

// New builds a server from cfg. Opening a damaged store is not fatal
// (damaged records are skipped and reported by /benchmarks); only an
// unreadable path is.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if _, err := clean.Lookup(cfg.DefaultCleaner); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cat := sim.NewCatalogue()
	coll := collector.New(cat)
	s := &Server{
		cfg:     cfg,
		cat:     cat,
		coll:    coll,
		source:  coll,
		queue:   NewQueue(cfg.Workers, cfg.QueueDepth),
		cache:   NewCache[*counterminer.Analysis](cfg.CacheSize),
		fpCache: NewCache[*client.Classification](cfg.CacheSize),
		metrics: NewMetrics(),
		extra:   make(map[string]http.Handler),
		streams: stream.NewRegistry(cfg.StreamHandles, 2*cfg.StreamHandles),
	}
	if cfg.StorePath != "" {
		db, err := store.Open(cfg.StorePath)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.StoreMemBytes > 0 {
			db.SetMemBudget(cfg.StoreMemBytes)
		}
		s.db = db
		s.fpIndex = fingerprint.NewIndex()
		s.rebuildIndex()
	}
	s.analyze = s.runPipeline
	return s, nil
}

// Metrics exposes the server's metrics registry (for embedding and
// tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/analyze/batch", s.handleAnalyzeBatch)
	mux.HandleFunc("/batch/", s.handleBatchHandle)
	mux.HandleFunc("/classify", s.handleClassify)
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// Serve runs the HTTP service on ln until ctx is canceled, then shuts
// down gracefully: the queue drains (executing analyses finish, queued
// ones are canceled through the *CancelError path), in-flight HTTP
// exchanges get ShutdownGrace to complete, and the store is flushed
// atomically. A clean shutdown returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// The background writeback keeps dirty shards flushing (and
	// evictable under a memory budget) between requests, at the store's
	// default interval; the final Flush below still catches mutations
	// after the last tick.
	stopWB := func() {}
	if s.db != nil {
		stopWB = s.db.StartWriteback(0)
	}
	hs := s.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
		// The listener died on its own; still drain the queue and
		// flush before reporting.
		s.drainWork()
	case <-ctx.Done():
		s.drainWork()
		shctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			serveErr = err
		}
		<-errc // always http.ErrServerClosed after Shutdown
	}
	stopWB()
	if s.db != nil {
		if err := s.db.Flush(); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	return serveErr
}

// Slow-client bounds for the HTTP server: a client must finish its
// request headers within readHeaderTimeout, and an idle keep-alive
// connection closes after idleTimeout, so a client that never finishes
// (slowloris) cannot hold a connection and a goroutine forever. There
// is deliberately no ReadTimeout or WriteTimeout: they would cut long
// SSE streams and large batch bodies.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the http.Server that Serve runs.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// drainWork begins shutdown of the job plane: the queue drains —
// executing jobs finish, queued ones are canceled through the
// pipeline's *CancelError path.
func (s *Server) drainWork() {
	s.draining.Store(true)
	s.queue.Drain()
	// With the queue drained every job has completed (canceled jobs
	// through the *CancelError path), so handle watchers finish in
	// moments; wait them out, then force-finish any straggler — every
	// open SSE stream gets its terminal event and returns before the
	// listener shuts down.
	grace := s.cfg.ShutdownGrace / 2
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	s.streams.Drain(grace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, client.Health{Status: status, UptimeSeconds: time.Since(s.metrics.start).Seconds()})
}

// handleReadyz is GET /readyz, the readiness probe: where /healthz
// answers "is the process alive", /readyz answers "should this node
// receive traffic". It flips to 503 the moment graceful drain begins
// (the queue stops admitting work long before the listener closes),
// the store stops accepting writes only as part of that same drain,
// and in cluster mode the role's own condition is consulted — a
// coordinator must hold the leader lease and see live workers, a
// worker must be registered with its coordinator.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining: the job queue no longer admits work")
	}
	if s.ready != nil {
		if err := s.ready(); err != nil {
			reasons = append(reasons, err.Error())
		}
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, client.ReadyResponse{Status: "unready", Reasons: reasons})
		return
	}
	writeJSON(w, http.StatusOK, client.ReadyResponse{Status: "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot())
}

// snapshot assembles the full metrics document from the server's live
// parts.
func (s *Server) snapshot() client.Snapshot {
	snap := s.metrics.SnapshotFrom(gauges{
		queue: s.queue, cache: s.cache, coll: s.coll, db: s.db, index: s.fpIndex,
		cluster: s.clusterStats,
	})
	snap.Stream = s.streams.Stats()
	return snap
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	resp := client.BenchmarksResponse{Available: sim.AllBenchmarkNames()}
	if s.db != nil {
		for _, b := range s.db.Benchmarks() {
			resp.Stored = append(resp.Stored, client.BenchmarkSummary{
				Benchmark: b.Benchmark,
				Runs:      b.Runs,
				Intervals: b.Intervals,
				Events:    b.Events,
				ByMode:    b.ByMode,
			})
		}
		stats := s.db.Summarize()
		resp.Store = &client.StoreStats{
			Runs:           stats.Runs,
			Benchmarks:     stats.Benchmarks,
			Samples:        stats.Samples,
			SkippedRecords: stats.SkippedRecords,
			ByMode:         stats.ByMode,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var req client.AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	job, herr := s.resolve(req)
	if herr != nil {
		s.metrics.IncBadRequest()
		writeError(w, herr.status, herr.code, herr.msg)
		return
	}

	start := time.Now()
	// Admission failures complete the call with the typed rejection
	// (never cached), waking any followers.
	ana, ok, call, leader := s.acquire(job)
	if ok {
		writeJSON(w, http.StatusOK, client.AnalyzeResponse{
			Key: job.Key, Cached: true,
			ElapsedMs: msSince(start), Analysis: ana,
		})
		return
	}
	select {
	case <-call.Done:
	case <-r.Context().Done():
		// The client is gone; the execution continues for the other
		// waiters and the cache.
		return
	}
	if call.Err != nil {
		status, code := ErrorStatus(call.Err)
		writeError(w, status, code, call.Err.Error())
		return
	}
	writeJSON(w, http.StatusOK, client.AnalyzeResponse{
		Key: job.Key, Shared: !leader,
		ElapsedMs: msSince(start), Analysis: call.Val,
	})
}

// httpError carries a handler-layer validation failure.
type httpError struct {
	status int
	code   string
	msg    string
}

// resolve validates an AnalyzeRequest into a keyed Job: the benchmarks
// must exist, event patterns must resolve to at least two events, the
// cleaner name must be registered, and the runs and seed must give
// distinct run ids (counterminer.Options.Validate). The Job carries
// the resolved event names and the canonical cleaner name, never the
// raw request strings, so equal analyses share one content address.
func (s *Server) resolve(req client.AnalyzeRequest) (Job, *httpError) {
	if req.Benchmark == "" {
		return Job{}, &httpError{http.StatusBadRequest, "bad_request", "benchmark is required (see GET /benchmarks)"}
	}
	if herr := checkBenchmarks(req.Benchmark, req.Colocate); herr != nil {
		return Job{}, herr
	}
	if req.Runs < 0 || req.Trees < 0 || req.PruneStep < 0 || req.TopK < 0 || req.MinRuns < 0 {
		return Job{}, &httpError{http.StatusBadRequest, "bad_request", "runs, trees, prune_step, top_k, and min_runs must be >= 0"}
	}
	if req.Runs > 0 && req.MinRuns > req.Runs {
		return Job{}, &httpError{http.StatusBadRequest, "bad_request", "min_runs cannot exceed runs"}
	}
	cleanerName := req.Cleaner
	if cleanerName == "" {
		cleanerName = s.cfg.DefaultCleaner
	}
	cleaner, err := clean.Lookup(cleanerName)
	if err != nil {
		return Job{}, &httpError{
			http.StatusNotFound, "unknown_cleaner",
			fmt.Sprintf("unknown cleaner %q; candidates: %s", cleanerName, strings.Join(clean.Candidates(cleanerName), ", ")),
		}
	}
	var events []string
	if len(req.Events) > 0 {
		sel, err := s.cat.Select(req.Events)
		if err != nil {
			return Job{}, &httpError{http.StatusBadRequest, "bad_request", err.Error()}
		}
		if len(sel) < 2 {
			return Job{}, &httpError{http.StatusBadRequest, "bad_request", fmt.Sprintf("event patterns resolve to %d event(s); an analysis needs at least two", len(sel))}
		}
		events = sel
	}
	req.Events = events
	req.Cleaner = cleaner.Name()
	job := Job{AnalyzeRequest: req}
	if err := job.options().Validate(); err != nil {
		return Job{}, &httpError{http.StatusBadRequest, "bad_request", err.Error()}
	}
	return job.keyed(), nil
}

// runPipeline is the production analyze function: one pipeline per
// job, sharing the server's collector (memoized trace generators) and
// store handle. A fingerprint job runs only Collect + Fingerprint and
// returns the embedding alone.
func (s *Server) runPipeline(ctx context.Context, job Job) (*counterminer.Analysis, error) {
	opts := job.options()
	opts.Workers = s.cfg.AnalysisWorkers
	opts.Source = s.source
	if s.db != nil {
		opts.Sink = indexingSink{s}
		// Satellite fix: persist failures must name the store they
		// failed against, so the wrapped error carries the path.
		opts.StorePath = s.cfg.StorePath
	}
	p, err := counterminer.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	if job.Kind == KindFingerprint {
		vec, err := p.FingerprintContext(ctx, job.Benchmark, job.Colocate)
		if err != nil {
			return nil, err
		}
		name := job.Benchmark
		if job.Colocate != "" {
			name += "+" + job.Colocate
		}
		return &counterminer.Analysis{Benchmark: name, Fingerprint: vec}, nil
	}
	if job.Colocate != "" {
		return p.AnalyzeColocatedContext(ctx, job.Benchmark, job.Colocate)
	}
	return p.AnalyzeContext(ctx, job.Benchmark)
}

// indexingSink is the pipeline's sink on a node with a store: it
// persists each run and upserts that run's fingerprint-index entry in
// the same step, so keeping /classify current costs no embedding — the
// record carries the one the Fingerprint stage computed — and never a
// pass over the stored runs; the store's flush likewise writes only
// the persisted runs.
type indexingSink struct{ s *Server }

// persistStripes is the number of persistMu locks.
const persistStripes = 64

// Put builds rec's index entry outside any lock (embedding the run only
// when the record carries no embedding), then writes the record and
// its index entry under its benchmark's persistMu stripe. Two jobs with
// the same benchmark and seed but different events have different
// content addresses, so both execute and write the same run keys with
// different series; the lock makes the last store write to a key also
// the last upsert for it. A run key names its benchmark, hence the
// striping: the store write can wait on the benchmark's shard lock
// while a flush writes that benchmark's newly put runs or while the
// shard reloads, and that wait then stalls only persists that share
// the stripe.
func (k indexingSink) Put(rec store.Record) error {
	s := k.s
	entry := RunEntry(rec)
	h := fnv.New32a()
	h.Write([]byte(rec.Meta.Benchmark))
	mu := &s.persistMu[h.Sum32()%persistStripes]
	mu.Lock()
	defer mu.Unlock()
	if err := s.db.Put(rec); err != nil {
		return err
	}
	s.fpIndex.Upsert(entry)
	return nil
}

// Flush flushes the store: it writes the runs put since the last flush,
// one file each, and nothing else.
func (k indexingSink) Flush() error { return k.s.db.Flush() }

// checkBenchmarks rejects the first non-empty name that names no
// benchmark, listing the candidates; /analyze, its batch and stream
// members, and /classify all check their benchmark and colocate with
// it.
func checkBenchmarks(names ...string) *httpError {
	for _, name := range names {
		if name == "" {
			continue
		}
		if _, err := sim.ProfileByName(name); err != nil {
			return &httpError{
				http.StatusNotFound, "unknown_benchmark",
				fmt.Sprintf("unknown benchmark %q; candidates: %s", name, strings.Join(sim.Candidates(name), ", ")),
			}
		}
	}
	return nil
}

// ErrorCode is one word of the serving layer's error vocabulary: the
// HTTP status and wire code of every error matching Err.
type ErrorCode struct {
	Err    error
	Status int
	Code   string
}

// ErrorCodes is the error vocabulary, in the order ErrorStatus tries
// it: a canceled stage whose context ran out of budget matches both
// context.DeadlineExceeded and counterminer.ErrCanceled, and reports
// budget_exceeded. The cluster layer speaks the same vocabulary over
// its worker RPCs: a worker encodes its outcome with ErrorStatus and
// the coordinator looks the code up here to decode it back into the
// matching sentinel, so error identity survives one network hop
// exactly.
var ErrorCodes = []ErrorCode{
	{ErrQueueFull, http.StatusTooManyRequests, "queue_full"},
	{ErrDraining, http.StatusServiceUnavailable, "draining"},
	{ErrNotLeader, http.StatusServiceUnavailable, "not_leader"},
	{ErrNoWorkers, http.StatusServiceUnavailable, "no_workers"},
	{ErrNoIndex, http.StatusServiceUnavailable, "no_index"},
	{fingerprint.ErrEmpty, http.StatusServiceUnavailable, "index_empty"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "budget_exceeded"},
	{counterminer.ErrCanceled, http.StatusServiceUnavailable, "canceled"},
	{counterminer.ErrQuorum, http.StatusBadGateway, "quorum_not_met"},
	{counterminer.ErrSeriesInvalid, http.StatusBadGateway, "series_invalid"},
}

// ErrorStatus maps an analysis, admission, or cluster error onto the
// typed HTTP rejection the client sees: the first row of ErrorCodes
// that err matches, else 500 internal.
func ErrorStatus(err error) (int, string) {
	for _, c := range ErrorCodes {
		if errors.Is(err, c.Err) {
			return c.Status, c.Code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// writeJSON encodes v before it writes the status, so a value that
// cannot be encoded (a non-finite float) answers 500 with a typed error
// instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		// An ErrorResponse holds only strings and an int; it always
		// encodes.
		_ = enc.Encode(client.ErrorResponse{Error: "internal", Message: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one left to
	// tell.
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	resp := client.ErrorResponse{Error: code, Message: msg}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		resp.RetryAfterSeconds = 1
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
