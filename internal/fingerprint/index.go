package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sort"
	"strconv"
	"sync"
)

// ErrEmpty is returned by Classify when the index holds no entries —
// a daemon with an empty (or absent) store cannot classify anything.
var ErrEmpty = errors.New("fingerprint: empty index")

// Default clustering parameters, calibrated on the simulated sixteen
// benchmarks (see TestIndexSeparationCalibration): embeddings of runs
// of the same benchmark land within ~0.05 of each other while
// distinct benchmarks sit ≥ ~0.25 apart, so a leader threshold of
// 0.15 groups every benchmark into its own cluster with no merges.
const (
	// DefaultTau is the leader-clustering distance threshold: an entry
	// within Tau of an existing leader joins that cluster.
	DefaultTau = 0.15
	// DefaultSlack multiplies a cluster's observed radius into its
	// anomaly boundary.
	DefaultSlack = 3.0
	// DefaultFloor is the absolute anomaly boundary used when a
	// cluster's radius is degenerate (singleton clusters have radius
	// zero). Distances beyond the floor are anomalous even for
	// tight clusters.
	DefaultFloor = 0.12
	// DefaultTemp is the softmax temperature converting distances into
	// per-cluster weights for confidence aggregation.
	DefaultTemp = 0.05
)

// Entry is one run's fingerprint with its identity labels. Key must
// be unique across the index (the store's benchmark/runID/mode key);
// Label is the benchmark name and Suite its suite.
type Entry struct {
	Key   string
	Label string
	Suite string
	Vec   []float64
}

// Cluster is one group of entries sharing a behaviour signature.
type Cluster struct {
	// Label is the majority benchmark label of the members (ties
	// broken lexically).
	Label string
	// Suite is the majority suite of the members.
	Suite string
	// Centroid is the unit-normalised mean of the member vectors.
	Centroid []float64
	// Radius is the largest member-to-centroid distance.
	Radius float64
	// Members is the member count.
	Members int
}

// Match is one nearest-cluster result of a classification.
type Match struct {
	Label    string
	Suite    string
	Distance float64
	Members  int
}

// SuiteConfidence is the aggregated classification confidence for one
// suite.
type SuiteConfidence struct {
	Suite      string
	Confidence float64
}

// Result is the outcome of classifying one embedding.
type Result struct {
	// Matches lists the nearest clusters, ascending by distance.
	Matches []Match
	// Confidence is the softmax weight of the nearest cluster — near
	// 1 when the profile sits inside a well-separated cluster.
	Confidence float64
	// Suites aggregates cluster weights per suite, descending.
	Suites []SuiteConfidence
	// Anomaly is true when the distance to the nearest cluster
	// exceeds that cluster's dispersion boundary: the profile does
	// not behave like any known workload.
	Anomaly bool
	// AnomalyScore is distance/boundary for the nearest cluster;
	// values above 1 are anomalous.
	AnomalyScore float64
	// IndexVersion is the content hash of the index that produced
	// this result.
	IndexVersion string
	// Clusters and Entries describe the index size at classify time.
	Clusters int
	Entries  int
}

// Index is an online leader-clustering index over run fingerprints.
// It is safe for concurrent use.
//
// Determinism contract: the clustering is a pure function of the
// entry set, not of insertion order — every read after a write re-runs
// the leader pass over all entries in sorted-key order.
// Two indexes holding the same entries therefore have identical
// clusters and an identical Version() on every node of a cluster,
// which is what lets the index version participate in the classify
// content address without coordination.
//
// Writes cost O(entries written): they store the entries and mark the
// index stale. The first clustering read after them (Version,
// Clusters, NumClusters, Classify) rebuilds once, so a burst of writes
// between two reads pays for one leader pass.
type Index struct {
	mu         sync.RWMutex
	entries    map[string]Entry
	stale      bool // entries changed since the last rebuild
	clusters   []Cluster
	version    string
	reclusters uint64 // rebuilds so far
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		entries: make(map[string]Entry),
		version: "empty",
	}
}

// Upsert adds or replaces one entry.
func (ix *Index) Upsert(e Entry) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.entries[e.Key] = e
	ix.stale = true
}

// Fill bulk-adds (or replaces) entries — the startup path over the
// whole store. Filling no entries leaves the index as it is.
func (ix *Index) Fill(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, e := range entries {
		ix.entries[e.Key] = e
	}
	ix.stale = true
}

// Len reports the number of entries.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// Reclusters reports how many times the index has reclustered, each a
// leader pass and a rehash over every entry.
func (ix *Index) Reclusters() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.reclusters
}

// NumClusters reports the number of clusters.
func (ix *Index) NumClusters() (n int) {
	ix.read(func() { n = len(ix.clusters) })
	return n
}

// Version returns the content hash of the index: entries in sorted
// key order plus the clustering options. Empty index → "empty".
func (ix *Index) Version() (v string) {
	ix.read(func() { v = ix.version })
	return v
}

// Clusters returns a copy of the current clusters.
func (ix *Index) Clusters() (out []Cluster) {
	ix.read(func() {
		out = make([]Cluster, len(ix.clusters))
		copy(out, ix.clusters)
	})
	return out
}

// read runs fn over a current clustering: under the read lock when no
// write happened since the last rebuild, otherwise under the write lock
// right after rebuilding, so fn never sees clusters and a version that
// lag the entries.
func (ix *Index) read(fn func()) {
	ix.mu.RLock()
	if !ix.stale {
		defer ix.mu.RUnlock()
		fn()
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.stale {
		ix.rebuild()
	}
	fn()
}

// rebuild recomputes clusters and version. Caller holds mu for writing.
//
// The leader pass walks entries in sorted-key order with leader
// centroids frozen at the leader's own vector (classic leader
// clustering), so assignment is independent of both insertion order
// and of previously computed centroids; member statistics (centroid,
// radius, majority label) are derived afterwards.
func (ix *Index) rebuild() {
	keys := make([]string, 0, len(ix.entries))
	for k := range ix.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sorted := make([]Entry, len(keys))
	for i, k := range keys {
		sorted[i] = ix.entries[k]
	}

	var leaders []Entry
	assign := make([]int, len(sorted))
	for i, e := range sorted {
		best, bestD := -1, math.Inf(1)
		for ci := range leaders {
			d := Distance(e.Vec, leaders[ci].Vec)
			if d < bestD {
				best, bestD = ci, d
			}
		}
		if best >= 0 && bestD <= DefaultTau {
			assign[i] = best
		} else {
			leaders = append(leaders, e)
			assign[i] = len(leaders) - 1
		}
	}

	clusters := make([]Cluster, len(leaders))
	members := make([][]int, len(leaders))
	for i, ci := range assign {
		members[ci] = append(members[ci], i)
	}
	for ci := range clusters {
		centroid := make([]float64, Dim)
		for _, i := range members[ci] {
			for j, v := range sorted[i].Vec {
				if j < Dim {
					centroid[j] += v
				}
			}
		}
		norm := 0.0
		for _, v := range centroid {
			norm += v * v
		}
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for j := range centroid {
				centroid[j] *= inv
			}
		}
		radius := 0.0
		labelVotes := map[string]int{}
		suiteVotes := map[string]int{}
		for _, i := range members[ci] {
			e := sorted[i]
			if d := Distance(e.Vec, centroid); d > radius {
				radius = d
			}
			labelVotes[e.Label]++
			suiteVotes[e.Suite]++
		}
		clusters[ci] = Cluster{
			Label:    majority(labelVotes),
			Suite:    majority(suiteVotes),
			Centroid: centroid,
			Radius:   radius,
			Members:  len(members[ci]),
		}
	}
	// Present clusters in a stable, size-independent order.
	sort.Slice(clusters, func(a, b int) bool {
		if clusters[a].Label != clusters[b].Label {
			return clusters[a].Label < clusters[b].Label
		}
		return clusters[a].Members > clusters[b].Members
	})
	ix.clusters = clusters
	ix.version = ix.hash(sorted)
	ix.stale = false
	ix.reclusters++
}

// hash computes the content address of the entry set, given in key
// order, and of the four clustering constants, so recalibrating one
// changes every Version. Each entry's bytes go to the hash in one
// write.
func (ix *Index) hash(sorted []Entry) string {
	if len(sorted) == 0 {
		return "empty"
	}
	h := sha256.New()
	var buf []byte
	for _, f := range []float64{DefaultTau, DefaultSlack, DefaultFloor, DefaultTemp} {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, e := range sorted {
		buf = append(buf, e.Key...)
		buf = append(buf, 0)
		buf = append(buf, e.Label...)
		buf = append(buf, 0)
		buf = append(buf, e.Suite...)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(len(e.Vec)), 10)
		for _, v := range e.Vec {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
		buf = buf[:0]
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// majority returns the key with the most votes, ties broken lexically.
func majority(votes map[string]int) string {
	best, bestN := "", -1
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if votes[k] > bestN {
			best, bestN = k, votes[k]
		}
	}
	return best
}

// Classify maps an embedding to its nearest clusters. k bounds the
// number of returned matches (k ≤ 0 means 3). It returns ErrEmpty on
// an index with no entries.
func (ix *Index) Classify(vec []float64, k int) (res *Result, err error) {
	if k <= 0 {
		k = 3
	}
	ix.read(func() { res, err = ix.classify(vec, k) })
	return res, err
}

// classify is Classify over a current clustering. Caller holds mu.
func (ix *Index) classify(vec []float64, k int) (*Result, error) {
	if len(ix.entries) == 0 {
		return nil, ErrEmpty
	}

	type scored struct {
		ci int
		d  float64
	}
	ds := make([]scored, len(ix.clusters))
	for ci := range ix.clusters {
		ds[ci] = scored{ci, Distance(vec, ix.clusters[ci].Centroid)}
	}
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].d != ds[b].d {
			return ds[a].d < ds[b].d
		}
		return ix.clusters[ds[a].ci].Label < ix.clusters[ds[b].ci].Label
	})

	// Softmax weights over all clusters; numerically anchored at the
	// nearest distance so well-separated matches get weight ~1.
	d0 := ds[0].d
	weights := make([]float64, len(ds))
	sum := 0.0
	for i, s := range ds {
		w := math.Exp(-(s.d - d0) / DefaultTemp)
		weights[i] = w
		sum += w
	}
	suiteW := map[string]float64{}
	for i, s := range ds {
		suiteW[ix.clusters[s.ci].Suite] += weights[i] / sum
	}
	suites := make([]SuiteConfidence, 0, len(suiteW))
	for s, w := range suiteW {
		suites = append(suites, SuiteConfidence{Suite: s, Confidence: w})
	}
	sort.Slice(suites, func(a, b int) bool {
		if suites[a].Confidence != suites[b].Confidence {
			return suites[a].Confidence > suites[b].Confidence
		}
		return suites[a].Suite < suites[b].Suite
	})

	n := k
	if n > len(ds) {
		n = len(ds)
	}
	matches := make([]Match, n)
	for i := 0; i < n; i++ {
		c := ix.clusters[ds[i].ci]
		matches[i] = Match{Label: c.Label, Suite: c.Suite, Distance: ds[i].d, Members: c.Members}
	}

	nearest := ix.clusters[ds[0].ci]
	boundary := nearest.Radius * DefaultSlack
	if boundary < DefaultFloor {
		boundary = DefaultFloor
	}
	return &Result{
		Matches:      matches,
		Confidence:   weights[0] / sum,
		Suites:       suites,
		Anomaly:      d0 > boundary,
		AnomalyScore: d0 / boundary,
		IndexVersion: ix.version,
		Clusters:     len(ix.clusters),
		Entries:      len(ix.entries),
	}, nil
}
