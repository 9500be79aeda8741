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
// client library. Each counter is declared once, in its pkg/client
// section struct, and counted in place under mu. The whole surface —
// batch counters included — is pre-registered: every field is present
// (zeroed) before the first request arrives.
type Metrics struct {
	start time.Time

	mu          sync.Mutex
	requests    client.RequestCounters
	batch       client.BatchCounters
	analyses    client.AnalysisCounters
	fingerprint client.FingerprintCounters
	// embedLatency and classifyLatency feed the fingerprint section's
	// latency distributions.
	embedLatency    *Histogram
	classifyLatency *Histogram
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
	client.CleanerCounters
	latency *Histogram
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
func (m *Metrics) IncRequest() { m.inc(&m.requests.Total) }

// IncBadRequest counts one request rejected as malformed.
func (m *Metrics) IncBadRequest() { m.inc(&m.requests.BadRequests) }

// IncRejected counts one admission rejection by cause.
func (m *Metrics) IncRejected(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if errors.Is(err, ErrDraining) {
		m.requests.RejectedDraining++
	} else {
		m.requests.RejectedQueueFull++
	}
}

// IncCacheHit / IncCacheMiss / IncShared count result-cache outcomes:
// a hit served from the LRU, a miss that became a pipeline execution,
// and a request that attached to an identical in-flight execution.
func (m *Metrics) IncCacheHit()  { m.inc(&m.requests.CacheHits) }
func (m *Metrics) IncCacheMiss() { m.inc(&m.requests.CacheMisses) }
func (m *Metrics) IncShared()    { m.inc(&m.requests.SingleflightShared) }

// ObserveBatch folds one scheduled batch's accounting into the
// batch counters.
func (m *Metrics) ObserveBatch(st client.BatchStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batch.Batches++
	m.batch.Jobs += uint64(st.Submitted)
	m.batch.Deduped += uint64(st.Deduped)
	m.batch.CacheHits += uint64(st.CacheHits)
	m.batch.Executed += uint64(st.Executed)
	m.batch.JobErrors += uint64(st.Errors)
}

// IncBatchRejected counts one whole-batch overload rejection (429 or
// 503).
func (m *Metrics) IncBatchRejected() { m.inc(&m.batch.Rejected) }

func (m *Metrics) inc(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// Classify-path counters: one per /classify request, per cache
// outcome (hit / miss-turned-execution / shared in-flight), and for
// requests refused because the node runs without a store.
func (m *Metrics) IncClassifyRequest()   { m.inc(&m.fingerprint.ClassifyRequests) }
func (m *Metrics) IncClassifyNoIndex()   { m.inc(&m.fingerprint.ClassifyNoIndex) }
func (m *Metrics) IncClassifyCacheHit()  { m.inc(&m.fingerprint.ClassifyCacheHits) }
func (m *Metrics) IncClassifyCacheMiss() { m.inc(&m.fingerprint.ClassifyCacheMisses) }
func (m *Metrics) IncClassifyShared()    { m.inc(&m.fingerprint.ClassifyShared) }

// IncIndexRebuild counts one full fingerprint-index rebuild from the
// store (the startup pass).
func (m *Metrics) IncIndexRebuild() { m.inc(&m.fingerprint.IndexRebuilds) }

// ObserveEmbed records one fingerprint-embedding execution (a
// KindFingerprint job, local or dispatched).
func (m *Metrics) ObserveEmbed(err error, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.fingerprint.EmbedErrors++
		return
	}
	m.fingerprint.Embeds++
	m.embedLatency.Observe(d)
}

// ObserveClassify records one finished classification: outcome,
// anomaly verdict, and end-to-end latency.
func (m *Metrics) ObserveClassify(cls *client.Classification, err error, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.fingerprint.ClassifyErrors++
		return
	}
	m.fingerprint.Classified++
	if cls != nil && cls.Anomaly {
		m.fingerprint.ClassifyAnomalies++
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
			m.analyses.Canceled++
		} else {
			m.analyses.Failed++
		}
		return
	}
	m.analyses.Completed++
	d := &ana.Degradation
	if d.Degraded() {
		m.analyses.Degraded++
	}
	m.analyses.Retries += uint64(d.Retries)
	m.analyses.RunsFailed += uint64(len(d.RunsFailed))
	m.analyses.EventsQuarantined += uint64(len(d.EventsQuarantined))
	m.analyses.StoreErrors += uint64(len(d.StoreErrors))
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
		cs.Analyses++
		cs.OutliersReplaced += uint64(ana.OutliersReplaced)
		cs.MissingFilled += uint64(ana.MissingFilled)
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
func (m *Metrics) SnapshotFrom(g gauges) client.Snapshot {
	// Read the index before taking mu: the first read after a write
	// reclusters, and that must not stall the counters.
	var indexEntries, indexClusters int
	var indexVersion string
	var indexReclusters uint64
	if g.index != nil {
		indexEntries, indexClusters, indexVersion = g.index.Len(), g.index.NumClusters(), g.index.Version()
		indexReclusters = g.index.Reclusters()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := client.Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.requests,
		Batch:         m.batch,
		Analyses:      m.analyses,
		Fingerprint:   m.fingerprint,
	}
	snap.Fingerprint.EmbedLatency = m.embedLatency.snapshot("embed")
	snap.Fingerprint.ClassifyLatency = m.classifyLatency.snapshot("classify")
	snap.Fingerprint.IndexEntries = indexEntries
	snap.Fingerprint.IndexClusters = indexClusters
	snap.Fingerprint.IndexReclusters = indexReclusters
	snap.Fingerprint.IndexVersion = indexVersion
	if g.queue != nil {
		snap.Queue = client.QueueGauges{
			Depth: g.queue.Depth(), Capacity: g.queue.Capacity(),
			Active: g.queue.Active(), Executed: g.queue.Executed(),
		}
	}
	if g.cache != nil {
		snap.Cache = client.CacheGauges{
			Entries: g.cache.Len(), Capacity: g.cache.Capacity(), Evictions: g.cache.Evictions(),
		}
	}
	if g.coll != nil {
		builds, hits := g.coll.MemoStats()
		snap.Collector = client.CollectorCounters{Builds: builds, MemoHits: hits}
	}
	if g.cluster != nil {
		cc := g.cluster()
		snap.Cluster = &cc
	}
	if g.db != nil {
		st := g.db.ShardStats()
		snap.Store = &client.StoreShardStats{
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
		cc := cs.CleanerCounters
		cc.Cleaner = name
		cc.CleanLatency = cs.latency.snapshot(counterminer.StageClean)
		snap.Cleaners = append(snap.Cleaners, cc)
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
func (h *Histogram) snapshot(stage string) client.StageHistogram {
	out := client.StageHistogram{
		Stage: stage,
		Count: h.count,
		SumMs: float64(h.sum) / float64(time.Millisecond),
	}
	cum := uint64(0)
	for i, b := range histogramBounds {
		cum += h.counts[i]
		out.Buckets = append(out.Buckets, client.BucketCount{
			LeMs:  float64(b) / float64(time.Millisecond),
			Count: cum,
		})
	}
	out.Buckets = append(out.Buckets, client.BucketCount{LeMs: -1, Count: h.count})
	return out
}
