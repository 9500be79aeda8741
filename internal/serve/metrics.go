package serve

import (
	"errors"
	"sync"
	"time"

	counterminer "counterminer"
	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fingerprint"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// Metrics is counterminerd's observability surface: request, cache,
// and batch counters, queue gauges, analysis outcomes, and one latency
// histogram per pipeline stage, fed from Analysis.Stages. Everything is
// exported as one JSON document by GET /metrics (the client.Snapshot
// wire type), so any scraper that speaks JSON can consume it without a
// client library. The whole surface — batch counters included — is
// pre-registered: every field is present (zeroed) before the first
// request arrives.
type Metrics struct {
	start time.Time

	mu sync.Mutex
	// request-path counters
	requests         uint64
	badRequests      uint64
	rejectedFull     uint64
	rejectedDraining uint64
	cacheHits        uint64
	cacheMisses      uint64
	shared           uint64
	// batch-path counters
	batches        uint64
	batchRejected  uint64
	batchJobs      uint64
	batchDeduped   uint64
	batchCacheHits uint64
	batchExecuted  uint64
	batchJobErrors uint64
	// analysis outcomes
	completed uint64
	failed    uint64
	canceled  uint64
	degraded  uint64
	// degradation detail, summed over completed analyses
	retries     uint64
	runsFailed  uint64
	quarantined uint64
	storeErrors uint64
	// fingerprint/classify counters, pre-registered like everything
	// else: the /metrics document carries a zeroed fingerprint section
	// before the first classification arrives.
	classifyRequests    uint64
	classified          uint64
	classifyErrors      uint64
	classifyAnomalies   uint64
	classifyNoIndex     uint64
	classifyCacheHits   uint64
	classifyCacheMisses uint64
	classifyShared      uint64
	indexRebuilds       uint64
	embeds              uint64
	embedErrors         uint64
	embedLatency        *Histogram
	classifyLatency     *Histogram
	// per-stage latency histograms, pre-registered over the full stage
	// plan so the surface is complete before the first analysis.
	stageOrder []string
	stages     map[string]*Histogram
	// per-cleaner Clean-stage accounting, pre-registered over the
	// cleaner registry.
	cleanerOrder []string
	cleaners     map[string]*cleanerStats
}

// cleanerStats is one cleaner's accounting: how often it ran, what it
// corrected, and its Clean-stage latency.
type cleanerStats struct {
	analyses uint64
	outliers uint64
	missing  uint64
	latency  *Histogram
}

// NewMetrics returns a metrics registry with one histogram per
// pipeline stage (in plan order, from counterminer.StageNames).
func NewMetrics() *Metrics {
	m := &Metrics{
		start:           time.Now(),
		stageOrder:      counterminer.StageNames(),
		stages:          make(map[string]*Histogram),
		cleanerOrder:    clean.Names(),
		cleaners:        make(map[string]*cleanerStats),
		embedLatency:    NewHistogram(),
		classifyLatency: NewHistogram(),
	}
	for _, s := range m.stageOrder {
		m.stages[s] = NewHistogram()
	}
	for _, c := range m.cleanerOrder {
		m.cleaners[c] = &cleanerStats{latency: NewHistogram()}
	}
	return m
}

// IncRequest counts one /analyze request (before admission).
func (m *Metrics) IncRequest() { m.inc(&m.requests) }

// IncBadRequest counts one request rejected as malformed.
func (m *Metrics) IncBadRequest() { m.inc(&m.badRequests) }

// IncRejected counts one admission rejection by cause.
func (m *Metrics) IncRejected(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if errors.Is(err, ErrDraining) {
		m.rejectedDraining++
	} else {
		m.rejectedFull++
	}
}

// IncCacheHit / IncCacheMiss / IncShared count result-cache outcomes:
// a hit served from the LRU, a miss that became a pipeline execution,
// and a request that attached to an identical in-flight execution.
func (m *Metrics) IncCacheHit()  { m.inc(&m.cacheHits) }
func (m *Metrics) IncCacheMiss() { m.inc(&m.cacheMisses) }
func (m *Metrics) IncShared()    { m.inc(&m.shared) }

// ObserveBatch folds one scheduled batch's accounting into the
// batch counters.
func (m *Metrics) ObserveBatch(st BatchStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.batchJobs += uint64(st.Submitted)
	m.batchDeduped += uint64(st.Deduped)
	m.batchCacheHits += uint64(st.CacheHits)
	m.batchExecuted += uint64(st.Executed)
	m.batchJobErrors += uint64(st.Errors)
}

// IncBatchRejected counts one whole-batch overload rejection (429 or
// 503).
func (m *Metrics) IncBatchRejected() { m.inc(&m.batchRejected) }

func (m *Metrics) inc(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// Classify-path counters: one per /classify request, per cache
// outcome (hit / miss-turned-execution / shared in-flight), and for
// requests refused because the node runs without a store.
func (m *Metrics) IncClassifyRequest()   { m.inc(&m.classifyRequests) }
func (m *Metrics) IncClassifyNoIndex()   { m.inc(&m.classifyNoIndex) }
func (m *Metrics) IncClassifyCacheHit()  { m.inc(&m.classifyCacheHits) }
func (m *Metrics) IncClassifyCacheMiss() { m.inc(&m.classifyCacheMisses) }
func (m *Metrics) IncClassifyShared()    { m.inc(&m.classifyShared) }

// IncIndexRebuild counts one full fingerprint-index rebuild from the
// store (startup, or an explicit resync).
func (m *Metrics) IncIndexRebuild() { m.inc(&m.indexRebuilds) }

// ObserveEmbed records one fingerprint-embedding execution (a
// KindFingerprint job, local or dispatched).
func (m *Metrics) ObserveEmbed(err error, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.embedErrors++
		return
	}
	m.embeds++
	m.embedLatency.Observe(d)
}

// ObserveClassify records one finished classification: outcome,
// anomaly verdict, and end-to-end latency.
func (m *Metrics) ObserveClassify(cls *client.Classification, err error, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.classifyErrors++
		return
	}
	m.classified++
	if cls != nil && cls.Anomaly {
		m.classifyAnomalies++
	}
	m.classifyLatency.Observe(d)
}

// ObserveAnalysis records one finished pipeline execution: outcome
// counters, per-stage latency, and degradation accounting.
func (m *Metrics) ObserveAnalysis(ana *counterminer.Analysis, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if errors.Is(err, counterminer.ErrCanceled) {
			m.canceled++
		} else {
			m.failed++
		}
		return
	}
	m.completed++
	d := &ana.Degradation
	if d.Degraded() {
		m.degraded++
	}
	m.retries += uint64(d.Retries)
	m.runsFailed += uint64(len(d.RunsFailed))
	m.quarantined += uint64(len(d.EventsQuarantined))
	m.storeErrors += uint64(len(d.StoreErrors))
	for _, st := range ana.Stages {
		h, ok := m.stages[st.Stage]
		if !ok {
			h = NewHistogram()
			m.stages[st.Stage] = h
			m.stageOrder = append(m.stageOrder, st.Stage)
		}
		h.Observe(st.Duration)
	}
	if ana.Cleaner != "" {
		cs, ok := m.cleaners[ana.Cleaner]
		if !ok {
			cs = &cleanerStats{latency: NewHistogram()}
			m.cleaners[ana.Cleaner] = cs
			m.cleanerOrder = append(m.cleanerOrder, ana.Cleaner)
		}
		cs.analyses++
		cs.outliers += uint64(ana.OutliersReplaced)
		cs.missing += uint64(ana.MissingFilled)
		for _, st := range ana.Stages {
			if st.Stage == counterminer.StageClean {
				cs.latency.Observe(st.Duration)
			}
		}
	}
}

// gauges bundles the live-state sources SnapshotFrom reads alongside
// the counters; any field may be nil.
type gauges struct {
	queue   *Queue
	cache   *Cache[*counterminer.Analysis]
	coll    *collector.Collector
	db      *store.DB
	index   *fingerprint.Index
	cluster func() client.ClusterCounters
}

// SnapshotFrom assembles the full metrics document from the registry
// plus the queue, cache, and collector gauges.
func (m *Metrics) SnapshotFrom(g gauges) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests: RequestCounters{
			Total:              m.requests,
			BadRequests:        m.badRequests,
			RejectedQueueFull:  m.rejectedFull,
			RejectedDraining:   m.rejectedDraining,
			CacheHits:          m.cacheHits,
			CacheMisses:        m.cacheMisses,
			SingleflightShared: m.shared,
		},
		Batch: BatchCounters{
			Batches:   m.batches,
			Rejected:  m.batchRejected,
			Jobs:      m.batchJobs,
			Deduped:   m.batchDeduped,
			CacheHits: m.batchCacheHits,
			Executed:  m.batchExecuted,
			JobErrors: m.batchJobErrors,
		},
		Analyses: AnalysisCounters{
			Completed:         m.completed,
			Failed:            m.failed,
			Canceled:          m.canceled,
			Degraded:          m.degraded,
			Retries:           m.retries,
			RunsFailed:        m.runsFailed,
			EventsQuarantined: m.quarantined,
			StoreErrors:       m.storeErrors,
		},
		Fingerprint: FingerprintCounters{
			ClassifyRequests:    m.classifyRequests,
			Classified:          m.classified,
			ClassifyErrors:      m.classifyErrors,
			ClassifyAnomalies:   m.classifyAnomalies,
			ClassifyNoIndex:     m.classifyNoIndex,
			ClassifyCacheHits:   m.classifyCacheHits,
			ClassifyCacheMisses: m.classifyCacheMisses,
			ClassifyShared:      m.classifyShared,
			IndexRebuilds:       m.indexRebuilds,
			Embeds:              m.embeds,
			EmbedErrors:         m.embedErrors,
			EmbedLatency:        m.embedLatency.snapshot("embed"),
			ClassifyLatency:     m.classifyLatency.snapshot("classify"),
		},
	}
	if g.index != nil {
		snap.Fingerprint.IndexEntries = g.index.Len()
		snap.Fingerprint.IndexClusters = g.index.NumClusters()
		snap.Fingerprint.IndexVersion = g.index.Version()
	}
	if g.queue != nil {
		snap.Queue = QueueGauges{
			Depth: g.queue.Depth(), Capacity: g.queue.Capacity(),
			Active: g.queue.Active(), Executed: g.queue.Executed(),
		}
	}
	if g.cache != nil {
		snap.Cache = CacheGauges{
			Entries: g.cache.Len(), Capacity: g.cache.Capacity(), Evictions: g.cache.Evictions(),
		}
	}
	if g.coll != nil {
		builds, hits := g.coll.MemoStats()
		snap.Collector = CollectorCounters{Builds: builds, MemoHits: hits}
	}
	if g.cluster != nil {
		cc := g.cluster()
		snap.Cluster = &cc
	}
	if g.db != nil {
		st := g.db.ShardStats()
		snap.Store = &StoreShardStats{
			Shards:           st.Shards,
			LoadedShards:     st.Loaded,
			DirtyShards:      st.Dirty,
			ResidentBytes:    st.ResidentBytes,
			MemBudgetBytes:   st.MemBudgetBytes,
			ShardLoads:       st.Loads,
			ShardEvictions:   st.Evictions,
			WritebackFlushes: st.WritebackFlushes,
			WritebackErrors:  st.WritebackErrors,
			SkippedRecords:   st.SkippedRecords,
		}
	}
	for _, name := range m.stageOrder {
		snap.StageLatency = append(snap.StageLatency, m.stages[name].snapshot(name))
	}
	for _, name := range m.cleanerOrder {
		cs := m.cleaners[name]
		snap.Cleaners = append(snap.Cleaners, CleanerCounters{
			Cleaner:          name,
			Analyses:         cs.analyses,
			OutliersReplaced: cs.outliers,
			MissingFilled:    cs.missing,
			CleanLatency:     cs.latency.snapshot(counterminer.StageClean),
		})
	}
	return snap
}

// histogramBounds are the latency bucket upper bounds. Stage times
// span sub-millisecond validation to multi-second model fits, so the
// bounds are roughly logarithmic.
var histogramBounds = []time.Duration{
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bound latency histogram. It is not
// self-locking; the owning Metrics registry serializes access.
type Histogram struct {
	counts []uint64 // one per bound, plus overflow at the end
	count  uint64
	sum    time.Duration
}

// NewHistogram returns an empty histogram over histogramBounds.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(histogramBounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(histogramBounds) && d > histogramBounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += d
}

// snapshot renders the histogram with cumulative bucket counts
// (Prometheus-style: each bucket counts observations <= its bound; the
// final bucket, LeMs = -1 meaning +Inf, equals Count).
func (h *Histogram) snapshot(stage string) StageHistogram {
	out := StageHistogram{
		Stage: stage,
		Count: h.count,
		SumMs: float64(h.sum) / float64(time.Millisecond),
	}
	cum := uint64(0)
	for i, b := range histogramBounds {
		cum += h.counts[i]
		out.Buckets = append(out.Buckets, BucketCount{
			LeMs:  float64(b) / float64(time.Millisecond),
			Count: cum,
		})
	}
	out.Buckets = append(out.Buckets, BucketCount{LeMs: -1, Count: h.count})
	return out
}
