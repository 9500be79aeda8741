package client

import (
	counterminer "counterminer"
)

// ErrorResponse is the typed JSON error body every non-200 response
// carries.
type ErrorResponse struct {
	// Error is the machine-readable code ("queue_full", "draining",
	// "bad_request", "batch_too_large", "unknown_benchmark",
	// "unknown_cleaner", "canceled", "budget_exceeded",
	// "quorum_not_met", "series_invalid", "internal").
	Error string `json:"error"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterSeconds hints when a rejected request is worth
	// retrying (only set for overload rejections).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// AnalyzeRequest is POST /analyze's body, and one job of POST
// /analyze/batch. Zero-valued option fields select the pipeline
// defaults, exactly like counterminer.Options.
type AnalyzeRequest struct {
	// Benchmark is the workload to analyse (required; see
	// /benchmarks).
	Benchmark string `json:"benchmark"`
	// Colocate optionally names a second benchmark to share the
	// cluster with (§V-E).
	Colocate string `json:"colocate,omitempty"`
	// Events are event patterns (full names, Table III abbreviations,
	// or globs); empty analyses the full catalogue.
	Events []string `json:"events,omitempty"`
	Runs   int      `json:"runs,omitempty"`
	Trees  int      `json:"trees,omitempty"`
	// PruneStep is the EIR pruning step.
	PruneStep int `json:"prune_step,omitempty"`
	// TopK bounds the reported events and the interaction ranker's
	// input.
	TopK int `json:"top_k,omitempty"`
	// SkipEIR fits a single model instead of the refinement loop.
	SkipEIR bool  `json:"skip_eir,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// MinRuns is the collection quorum (0 = all runs must succeed).
	MinRuns int `json:"min_runs,omitempty"`
	// Cleaner selects the Clean-stage strategy by registry name
	// ("threshold-knn", "bayes"); empty uses the server's default. An
	// unknown name is rejected with 404 "unknown_cleaner" and a
	// candidate listing. The cleaner is part of the result's content
	// address: the same benchmark under two cleaners is two cache
	// entries.
	Cleaner string `json:"cleaner,omitempty"`
}

// AnalyzeResponse is POST /analyze's 200 body.
type AnalyzeResponse struct {
	// Key is the request's canonical content address (cache key).
	Key string `json:"key"`
	// Cached reports a result served straight from the LRU; Shared
	// reports one computed once and shared with concurrent identical
	// requests via singleflight.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// ElapsedMs is this request's wall time inside the server.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Analysis is the full mined result.
	Analysis *counterminer.Analysis `json:"analysis"`
}

// BatchRequest is POST /analyze/batch's body: a whole sweep in one
// round-trip. The server schedules the jobs cache-aware — exact
// duplicates collapse, the rest are grouped by benchmark — and returns
// one result per job in request order.
type BatchRequest struct {
	Jobs []AnalyzeRequest `json:"jobs"`
}

// BatchJobResult is one job's outcome inside a BatchResponse. Exactly
// one of Analysis and Error is set: a bad job never fails the batch.
type BatchJobResult struct {
	// Index is the job's position in the submitted batch.
	Index int `json:"index"`
	// Key is the job's content address (empty when the job was
	// rejected before scheduling).
	Key string `json:"key,omitempty"`
	// Cached reports a result served from the LRU; Deduped reports a
	// job that was an exact duplicate of an earlier job in this batch
	// and shares its leader's result.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	// Error is the job's typed failure, nil on success.
	Error *ErrorResponse `json:"error,omitempty"`
	// Analysis is the job's mined result, nil on failure.
	Analysis *counterminer.Analysis `json:"analysis,omitempty"`
}

// BatchStats is the batch-level accounting in a BatchResponse
// envelope (the same numbers the server accumulates into /metrics).
type BatchStats struct {
	// Submitted is the job count in the request.
	Submitted int `json:"submitted"`
	// Deduped is how many jobs were exact duplicates within the batch.
	Deduped int `json:"deduped"`
	// CacheHits is how many distinct jobs were served from the LRU.
	CacheHits int `json:"cache_hits"`
	// Executed is how many distinct jobs entered the admission queue.
	Executed int `json:"executed"`
	// Errors is how many jobs ended in a typed per-job error.
	Errors int `json:"errors"`
	// Groups is the number of distinct benchmark-identity groups.
	Groups int `json:"groups"`
	// ScheduleOrder lists the distinct jobs' indexes in request order,
	// the order they enter the admission queue (duplicates and invalid
	// jobs don't appear).
	ScheduleOrder []int `json:"schedule_order"`
}

// BatchResponse is POST /analyze/batch's body. Jobs come back in
// request order regardless of the schedule.
type BatchResponse struct {
	Jobs      []BatchJobResult `json:"jobs"`
	Stats     BatchStats       `json:"stats"`
	ElapsedMs float64          `json:"elapsed_ms"`
}

// BatchHandleResponse is POST /analyze/batch?async=1's 202 body: the
// handle to stream (GET /batch/{handle}/events), poll
// (GET /batch/{handle}), or cancel (DELETE /batch/{handle}).
type BatchHandleResponse struct {
	// Handle is the batch's identifier.
	Handle string `json:"handle"`
	// Total is the job count admitted under the handle.
	Total int `json:"total"`
	// EventsPath and SnapshotPath are the ready-made request paths.
	EventsPath   string `json:"events_path"`
	SnapshotPath string `json:"snapshot_path"`
}

// BatchJobState is one job's state inside a BatchSnapshot: the result
// so far plus a lifecycle status.
type BatchJobState struct {
	BatchJobResult
	// Status is "pending", "done", or "error".
	Status string `json:"status"`
}

// BatchSnapshot is GET /batch/{handle}'s body: the polled view of an
// asynchronous batch.
type BatchSnapshot struct {
	Handle string `json:"handle"`
	// Status is "open", "done", or "canceled".
	Status    string          `json:"status"`
	Total     int             `json:"total"`
	Completed int             `json:"completed"`
	Jobs      []BatchJobState `json:"jobs"`
	// Stats is the final accounting, present once the handle is
	// terminal.
	Stats *BatchStats `json:"stats,omitempty"`
}

// StreamDone is the data payload of a stream's terminal "done" SSE
// event.
type StreamDone struct {
	// Status is "done", or "canceled" when the handle was canceled
	// before completion.
	Status string `json:"status"`
	// Stats is the batch's final accounting.
	Stats BatchStats `json:"stats"`
}

// StreamCounters is the streaming subsystem's /metrics section.
// Pre-registered: present (zeroed) before the first async batch.
type StreamCounters struct {
	// HandlesOpened / HandlesFinished / HandlesCanceled count handle
	// lifecycle transitions; HandlesExpired counts finished handles
	// dropped from retention.
	HandlesOpened   uint64 `json:"handles_opened"`
	HandlesFinished uint64 `json:"handles_finished"`
	HandlesCanceled uint64 `json:"handles_canceled"`
	HandlesExpired  uint64 `json:"handles_expired"`
	// OpenHandles / RetainedHandles / Subscribers are live gauges.
	OpenHandles     int `json:"open_handles"`
	RetainedHandles int `json:"retained_handles"`
	Subscribers     int `json:"subscribers"`
	// EventsSent counts SSE frames written to subscribers (heartbeat
	// comments excluded).
	EventsSent uint64 `json:"events_sent"`
	// LateCompletions counts duplicate completions dropped by handles —
	// the exactly-once guard's hit counter.
	LateCompletions uint64 `json:"late_completions"`
}

// ClassifyRequest is POST /classify's body. The profile to classify
// comes in one of two forms: a benchmark identity (the server collects
// its runs, dispatching to workers in cluster mode, and embeds them),
// or an inline raw profile — X as intervals × events counter readings
// plus the IPC column — embedded directly on the serving node. Exactly
// one form must be used; setting both X and Benchmark is rejected.
type ClassifyRequest struct {
	// Benchmark (and optionally Colocate) name a simulated workload to
	// collect and classify. Runs/Seed mirror AnalyzeRequest.
	Benchmark string `json:"benchmark,omitempty"`
	Colocate  string `json:"colocate,omitempty"`
	Runs      int    `json:"runs,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// TopK bounds the returned nearest-cluster matches (0 = 3).
	TopK int `json:"top_k,omitempty"`
	// Events names the columns of an inline X (required with X); X is
	// the raw counter matrix, one row per interval, one column per
	// event; IPC is the per-interval IPC column (len(IPC) == len(X)).
	Events []string    `json:"events,omitempty"`
	X      [][]float64 `json:"x,omitempty"`
	IPC    []float64   `json:"ipc,omitempty"`
}

// ClusterMatch is one nearest-cluster result of a classification.
type ClusterMatch struct {
	// Benchmark is the cluster's majority workload label; Suite its
	// majority suite.
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite,omitempty"`
	// Distance is the embedding's distance to the cluster centroid.
	Distance float64 `json:"distance"`
	// Members is the cluster's member (stored run) count.
	Members int `json:"members"`
}

// SuiteConfidence is the aggregated classification confidence for one
// benchmark suite.
type SuiteConfidence struct {
	Suite      string  `json:"suite"`
	Confidence float64 `json:"confidence"`
}

// Classification is the classify verdict: the nearest workloads with
// distances, per-suite confidence, and the anomaly decision.
type Classification struct {
	// Fingerprint is the profile's embedding (the vector that was
	// matched against the index).
	Fingerprint []float64 `json:"fingerprint"`
	// Matches lists the nearest clusters, ascending by distance.
	Matches []ClusterMatch `json:"matches"`
	// Confidence is the softmax weight of the nearest cluster — near 1
	// when the profile sits inside a well-separated cluster.
	Confidence float64 `json:"confidence"`
	// Suites aggregates cluster weights per suite, descending.
	Suites []SuiteConfidence `json:"suites"`
	// Anomaly is true when the nearest-cluster distance exceeds that
	// cluster's dispersion boundary: the profile does not behave like
	// any stored workload. AnomalyScore is distance/boundary (> 1 is
	// anomalous).
	Anomaly      bool    `json:"anomaly"`
	AnomalyScore float64 `json:"anomaly_score"`
	// IndexVersion is the content hash of the fingerprint index that
	// produced this verdict; it participates in the response's cache
	// key, so a rebuilt index never serves stale classifications.
	IndexVersion string `json:"index_version"`
	// Clusters and Entries describe the index size at classify time.
	Clusters int `json:"clusters"`
	Entries  int `json:"entries"`
}

// ClassifyResponse is POST /classify's 200 body.
type ClassifyResponse struct {
	// Key is the classification's content address: the profile identity
	// plus the index version.
	Key string `json:"key"`
	// Cached reports a verdict served from the LRU; Shared one computed
	// once and shared with concurrent identical requests.
	Cached    bool    `json:"cached"`
	Shared    bool    `json:"shared,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Classification is the verdict.
	Classification *Classification `json:"classification"`
}

// BenchmarkSummary summarises one benchmark's persisted runs.
type BenchmarkSummary struct {
	Benchmark string `json:"benchmark"`
	Runs      int    `json:"runs"`
	Intervals int    `json:"intervals"`
	Events    int    `json:"events"`
	// ByMode counts the benchmark's runs per sampling mode.
	ByMode map[string]int `json:"by_mode"`
}

// StoreStats summarises the server's whole run store.
type StoreStats struct {
	Runs           int            `json:"runs"`
	Benchmarks     int            `json:"benchmarks"`
	Samples        int            `json:"samples"`
	SkippedRecords int            `json:"skipped_records"`
	ByMode         map[string]int `json:"by_mode"`
}

// BenchmarksResponse is GET /benchmarks's body: the analyzable
// catalog, plus — when the server persists runs — the store's read
// side.
type BenchmarksResponse struct {
	// Available lists every benchmark /analyze accepts.
	Available []string `json:"available"`
	// Stored summarises the benchmarks with persisted runs.
	Stored []BenchmarkSummary `json:"stored,omitempty"`
	// Store summarises the whole store file.
	Store *StoreStats `json:"store,omitempty"`
}

// Health is GET /healthz's body.
type Health struct {
	// Status is "ok", or "draining" once shutdown has begun (served
	// with a 503).
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReadyResponse is GET /readyz's body: the readiness probe. Where
// /healthz answers "is the process alive", /readyz answers "should
// this node receive traffic" — 200 "ready", or 503 "unready" with the
// reasons (draining, coordinator not leading, worker not registered).
type ReadyResponse struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// ClusterCounters is the cluster role's contribution to /metrics:
// which role the node plays and the health of the coordination plane.
// Coordinator-only and worker-only fields are zero on the other role;
// a standalone daemon omits the whole section.
type ClusterCounters struct {
	// Role is "coordinator" or "worker"; NodeID the node's identity.
	Role   string `json:"role"`
	NodeID string `json:"node_id"`
	// Term is the highest coordination term this node has observed;
	// Leading reports a coordinator currently holding the leader lease.
	Term    uint64 `json:"term"`
	Leading bool   `json:"leading,omitempty"`
	// Elections counts this coordinator's role transitions into or out
	// of leadership.
	Elections uint64 `json:"elections,omitempty"`
	// Coordinator side: the worker registry and dispatch plane.
	WorkersLive            int    `json:"workers_live,omitempty"`
	Registrations          uint64 `json:"registrations,omitempty"`
	Heartbeats             uint64 `json:"heartbeats,omitempty"`
	LeaseExpirations       uint64 `json:"lease_expirations,omitempty"`
	Dispatches             uint64 `json:"dispatches,omitempty"`
	Requeues               uint64 `json:"requeues,omitempty"`
	RPCFailures            uint64 `json:"rpc_failures,omitempty"`
	LateCompletionsDropped uint64 `json:"late_completions_dropped,omitempty"`
	// Worker side: registration state and the exec surface.
	Registered        bool   `json:"registered,omitempty"`
	Killed            bool   `json:"killed,omitempty"`
	ExecsServed       uint64 `json:"execs_served,omitempty"`
	ExecErrors        uint64 `json:"exec_errors,omitempty"`
	StaleTermRejected uint64 `json:"stale_term_rejected,omitempty"`
	HeartbeatsSent    uint64 `json:"heartbeats_sent,omitempty"`
	HeartbeatsDropped uint64 `json:"heartbeats_dropped,omitempty"`
}

// Snapshot is the JSON document GET /metrics serves.
type Snapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      RequestCounters   `json:"requests"`
	Queue         QueueGauges       `json:"queue"`
	Cache         CacheGauges       `json:"cache"`
	Batch         BatchCounters     `json:"batch"`
	Collector     CollectorCounters `json:"collector"`
	Analyses      AnalysisCounters  `json:"analyses"`
	// Store is the run store's shard accounting; nil when the server
	// runs without a store.
	Store *StoreShardStats `json:"store,omitempty"`
	// Cluster is the cluster role's coordination-plane accounting; nil
	// on a standalone daemon.
	Cluster *ClusterCounters `json:"cluster,omitempty"`
	// Fingerprint is the classify/index surface. Pre-registered: the
	// section is present (zeroed) before the first classification.
	Fingerprint  FingerprintCounters `json:"fingerprint"`
	StageLatency []StageHistogram    `json:"stage_latency"`
	// Cleaners breaks the Clean stage down per registered cleaner:
	// analysis counts, correction totals, and the Clean-stage latency
	// distribution. Pre-registered — every cleaner appears (zeroed)
	// from the first scrape.
	Cleaners []CleanerCounters `json:"cleaners"`
	// Stream is the streaming-batch subsystem: handle lifecycle and
	// SSE fanout. Pre-registered — present (zeroed) before the first
	// async batch.
	Stream StreamCounters `json:"stream"`
}

// CleanerCounters is one cleaner's /metrics section: how often it ran,
// what it corrected, and how long its Clean stage took.
type CleanerCounters struct {
	// Cleaner is the registry name ("threshold-knn", "bayes").
	Cleaner string `json:"cleaner"`
	// Analyses counts completed analyses that ran this cleaner.
	Analyses uint64 `json:"analyses"`
	// OutliersReplaced and MissingFilled aggregate the cleaner's
	// corrections over those analyses.
	OutliersReplaced uint64 `json:"outliers_replaced"`
	MissingFilled    uint64 `json:"missing_filled"`
	// CleanLatency is the Clean stage's latency distribution under this
	// cleaner.
	CleanLatency StageHistogram `json:"clean_latency"`
}

// StoreShardStats is the run store's shard-level accounting: catalog
// shape, resident memory against the eviction budget, and the
// load/evict/writeback counters of the sharded layout.
type StoreShardStats struct {
	// Shards counts the catalog's benchmarks; LoadedShards how many
	// have their series resident; DirtyShards how many carry unflushed
	// mutations.
	Shards       int `json:"shards"`
	LoadedShards int `json:"loaded_shards"`
	DirtyShards  int `json:"dirty_shards"`
	// ResidentBytes is the series payload held in memory;
	// MemBudgetBytes the eviction target (0 = unlimited).
	ResidentBytes  int64 `json:"resident_bytes"`
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
	// ShardLoads and ShardEvictions count lazy loads and LRU evictions.
	ShardLoads     uint64 `json:"shard_loads"`
	ShardEvictions uint64 `json:"shard_evictions"`
	// WritebackFlushes counts the shards the background writeback
	// goroutine flushed, summed over its passes (each flushed shard
	// writes one run file per run put since its last flush);
	// WritebackErrors counts its failed passes.
	WritebackFlushes uint64 `json:"writeback_flushes"`
	WritebackErrors  uint64 `json:"writeback_errors"`
	// SkippedRecords counts records dropped reading damaged files.
	SkippedRecords int `json:"skipped_records"`
}

// RequestCounters groups the request-path counters.
type RequestCounters struct {
	Total              uint64 `json:"total"`
	BadRequests        uint64 `json:"bad_requests"`
	RejectedQueueFull  uint64 `json:"rejected_queue_full"`
	RejectedDraining   uint64 `json:"rejected_draining"`
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	SingleflightShared uint64 `json:"singleflight_shared"`
}

// QueueGauges groups the queue's live state.
type QueueGauges struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Active   int `json:"active"`
	Executed int `json:"executed"`
}

// CacheGauges groups the result cache's live state.
type CacheGauges struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Evictions uint64 `json:"evictions"`
}

// BatchCounters groups the batch subsystem's counters and gauges. The
// whole surface is pre-registered: every field is present (zeroed) in
// /metrics before the first batch arrives.
type BatchCounters struct {
	// Batches counts POST /analyze/batch requests accepted for
	// scheduling; Rejected counts whole-batch overload rejections
	// (429/503).
	Batches  uint64 `json:"batches"`
	Rejected uint64 `json:"rejected"`
	// Jobs / Deduped / CacheHits / Executed / JobErrors aggregate the
	// per-batch BatchStats over all batches.
	Jobs      uint64 `json:"jobs"`
	Deduped   uint64 `json:"deduped"`
	CacheHits uint64 `json:"cache_hits"`
	Executed  uint64 `json:"executed"`
	JobErrors uint64 `json:"job_errors"`
}

// CollectorCounters reports the shared collector's trace-generator
// memoization. The memo never evicts, so Builds equals the number of
// distinct benchmark profiles analyzed, at any dispatch order; every
// other generator lookup is a MemoHit.
type CollectorCounters struct {
	// Builds counts expensive trace-generator constructions (at most
	// one per distinct benchmark profile).
	Builds uint64 `json:"generator_builds"`
	// MemoHits counts generator lookups served by the memo.
	MemoHits uint64 `json:"memo_hits"`
}

// AnalysisCounters groups pipeline-execution outcomes and the summed
// degradation accounting.
type AnalysisCounters struct {
	Completed         uint64 `json:"completed"`
	Failed            uint64 `json:"failed"`
	Canceled          uint64 `json:"canceled"`
	Degraded          uint64 `json:"degraded"`
	Retries           uint64 `json:"retries"`
	RunsFailed        uint64 `json:"runs_failed"`
	EventsQuarantined uint64 `json:"events_quarantined"`
	StoreErrors       uint64 `json:"store_errors"`
}

// FingerprintCounters is the classify/index /metrics section: request
// and cache counters, embedding executions, anomaly verdicts, and the
// live index gauges.
type FingerprintCounters struct {
	ClassifyRequests    uint64 `json:"classify_requests"`
	Classified          uint64 `json:"classified"`
	ClassifyErrors      uint64 `json:"classify_errors"`
	ClassifyAnomalies   uint64 `json:"classify_anomalies"`
	ClassifyNoIndex     uint64 `json:"classify_no_index"`
	ClassifyCacheHits   uint64 `json:"classify_cache_hits"`
	ClassifyCacheMisses uint64 `json:"classify_cache_misses"`
	ClassifyShared      uint64 `json:"classify_shared"`
	// IndexRebuilds counts full index rebuilds from the store; Embeds
	// and EmbedErrors count fingerprint-embedding executions.
	IndexRebuilds uint64 `json:"index_rebuilds"`
	Embeds        uint64 `json:"embeds"`
	EmbedErrors   uint64 `json:"embed_errors"`
	// Live index gauges; zero-valued on a node without a store.
	// IndexReclusters counts the index's reclusterings since startup,
	// each a leader pass and a rehash over every entry: the part of
	// index upkeep that grows with the store.
	IndexEntries    int    `json:"index_entries"`
	IndexClusters   int    `json:"index_clusters"`
	IndexReclusters uint64 `json:"index_reclusters"`
	IndexVersion    string `json:"index_version,omitempty"`
	// Latency distributions for the embedding stage and the end-to-end
	// classify path.
	EmbedLatency    StageHistogram `json:"embed_latency"`
	ClassifyLatency StageHistogram `json:"classify_latency"`
}

// StageHistogram is one stage's latency distribution.
type StageHistogram struct {
	Stage   string        `json:"stage"`
	Count   uint64        `json:"count"`
	SumMs   float64       `json:"sum_ms"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one cumulative histogram bucket: how many
// observations were <= LeMs milliseconds (LeMs < 0 encodes +Inf).
type BucketCount struct {
	LeMs  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}
