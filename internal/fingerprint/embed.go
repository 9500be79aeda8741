// Package fingerprint turns collected counter runs into compact
// workload signatures and clusters them. "Program Behavior Analysis
// and Clustering using Performance Counters" shows that hardware
// counter signatures separate programs by behaviour; here the same
// idea runs on top of CounterMiner's pipeline: every analysis that is
// persisted to the store contributes one embedding, an online leader
// clustering index groups them by workload, and /classify maps an
// unknown profile to its nearest known workloads (or flags it as an
// anomaly when it lands outside every cluster's dispersion).
//
// The embedding is deterministic by construction: features are robust
// summary statistics of each event series (mean-centred log level,
// relative spread, trend, skewness, and the event's correlation with
// IPC as an importance proxy), accumulated into a fixed-width vector
// by feature hashing in lexical event order, then L2-normalised. No model output, RNG, or
// map-iteration order is involved, so the same series always produce
// the same bits at any worker count, on any node, under any cleaner.
package fingerprint

import (
	"hash/fnv"
	"math"
	"strconv"

	"counterminer/internal/stats"
	"counterminer/internal/timeseries"
)

// Dim is the embedding width. 64 buckets comfortably hold the ~5
// hashed features of up to a few hundred events; collisions act as
// benign random projection.
const Dim = 64

// featCount is the number of per-event summary features hashed into
// the vector.
const featCount = 5

// minSamples is the minimum number of finite samples an event series
// needs to contribute features; shorter (or fully corrupt) series are
// skipped rather than poisoning the signature.
const minSamples = 4

// featScale balances the per-event features by how workload-specific
// versus run-specific they are, calibrated on the simulated sixteen
// benchmarks (TestIndexSeparationCalibration with the per-feature
// diagnostic): the mean-centred log level is by far the most stable
// benchmark characteristic (≈4× more inter- than intra-benchmark
// variation alone), the IPC coupling and relative spread add
// importance and dynamics information at reduced scale, and trend and
// skewness carry mostly per-run phase noise so they only season the
// signature.
var featScale = [featCount]float64{1.0, 0.1, 0.01, 0.02, 0.05}

// Embed computes the counter-signature embedding of one run: the
// event series as collected (raw or cleaned — the robust statistics
// make the two agree closely, see DESIGN.md §16) plus the run's IPC
// series from the fixed counters. The result is a unit-norm
// Dim-vector, or the zero vector if no event contributed.
//
// Per-event log levels are centred on the run's mean log level before
// hashing, so a uniform rescaling of every counter (e.g. a different
// multiplexing extrapolation factor) cancels out and what remains is
// the *relative* activity pattern across events — the part that is a
// property of the program, not of the sampling.
func Embed(set *timeseries.Set, ipc []float64) []float64 {
	vec := make([]float64, Dim)
	if set == nil {
		return vec
	}
	events := set.Events()
	names := make([]string, 0, len(events)+1)
	feats := make([][featCount]float64, 0, len(events)+1)
	var sc scratch
	meanLog := 0.0
	add := func(name string, vals []float64) {
		f, ok := sc.eventFeatures(vals, ipc)
		if !ok {
			return
		}
		names = append(names, name)
		feats = append(feats, f)
		meanLog += f[0]
	}
	for _, ev := range events {
		if s, ok := set.Get(ev); ok {
			add(ev, s.Values)
		}
	}
	// The run's IPC participates as a pseudo-event: its absolute level
	// and dynamics are workload-characteristic too.
	add("__ipc__", ipc)
	if len(names) == 0 {
		return vec
	}
	meanLog /= float64(len(names))
	for i, name := range names {
		f := feats[i]
		f[0] = clamp((f[0]-meanLog)/4, -1.5, 1.5)
		for k := 0; k < featCount; k++ {
			b, sign := bucket(name, k)
			vec[b] += sign * featScale[k] * f[k]
		}
	}
	norm := 0.0
	for _, v := range vec {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range vec {
			vec[i] *= inv
		}
	}
	return vec
}

// scratch holds the per-event working slices of one Embed call, so the
// events of a run reuse them instead of allocating their own.
type scratch struct {
	finite, idx, sel, wins []float64
	xs, ys                 []float64 // ipcCorrelation's aligned pairs
}

// percentiles are the order statistics eventFeatures takes: p05, p50
// and p95.
var percentiles = []float64{0.05, 0.50, 0.95}

// eventFeatures summarises one event series into featCount robust,
// roughly unit-scale features. Event importance deliberately enters
// as the IPC-coupling *feature* rather than as a multiplicative
// weight on the other features: a weight estimated per run would
// modulate every feature by its own estimation noise, which measured
// ~3× worse same-benchmark reproducibility in calibration. ok is
// false when the series has too few finite samples to summarise.
func (sc *scratch) eventFeatures(vals, ipc []float64) (feats [featCount]float64, ok bool) {
	finite, idx := sc.finite[:0], sc.idx[:0]
	for i, v := range vals {
		if isFinite(v) {
			finite = append(finite, v)
			idx = append(idx, float64(i))
		}
	}
	sc.finite, sc.idx = finite, idx
	if len(finite) < minSamples {
		return feats, false
	}
	// The percentiles come from selection on a copy (finite keeps its
	// time order for the trend and skew below): the values equal
	// lookups into the sorted sample.
	sc.sel = append(sc.sel[:0], finite...)
	var q [3]float64
	stats.Quantiles(sc.sel, percentiles, q[:])
	p05, p50, p95 := q[0], q[1], q[2]

	// Winsorise: MLPX extrapolation bursts and corrupt samples live in
	// the tails; clipping them keeps raw and cleaned series close.
	wins := sc.wins[:0]
	for _, v := range finite {
		wins = append(wins, clamp(v, p05, p95))
	}
	sc.wins = wins

	// level: log-compressed median magnitude — separates cache-miss
	// scale events from branch scale events without letting absolute
	// counts dominate. Embed centres this across the run's events
	// before hashing.
	feats[0] = math.Log1p(math.Abs(p50))
	// spread: dispersion relative to the level, scale invariant.
	feats[1] = clamp((p95-p05)/(math.Abs(p50)+1e-9), 0, 4) / 4
	// trend: does the event drift over the run (cold-start, ramp-up)?
	trend, _ := stats.Correlation(wins, idx[:len(wins)])
	feats[2] = trend
	// skew: burstiness of the distribution.
	feats[3] = clamp(stats.Skewness(finite), -4, 4) / 4
	// ipc coupling: signed correlation with the fixed-counter IPC.
	feats[4] = sc.ipcCorrelation(vals, ipc)

	return feats, true
}

// ipcCorrelation is the Pearson correlation between an event series
// and the IPC series over their finite, index-aligned overlap (0 when
// the overlap is too short or either side is constant).
func (sc *scratch) ipcCorrelation(vals, ipc []float64) float64 {
	n := len(vals)
	if len(ipc) < n {
		n = len(ipc)
	}
	xs, ys := sc.xs[:0], sc.ys[:0]
	for i := 0; i < n; i++ {
		if isFinite(vals[i]) && isFinite(ipc[i]) {
			xs = append(xs, vals[i])
			ys = append(ys, ipc[i])
		}
	}
	sc.xs, sc.ys = xs, ys
	if len(xs) < minSamples {
		return 0
	}
	c, err := stats.Correlation(xs, ys)
	if err != nil {
		return 0
	}
	return c
}

// bucket hashes (event, feature) into a vector slot and a ±1 sign.
// FNV-1a over the event name and feature index; the slot comes from
// the low bits and the sign from an independent high bit.
func bucket(event string, feat int) (int, float64) {
	h := fnv.New64a()
	h.Write([]byte(event))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(feat)))
	sum := h.Sum64()
	sign := 1.0
	if sum&(1<<40) != 0 {
		sign = -1.0
	}
	return int(sum % Dim), sign
}

// Combine folds several run embeddings into one profile embedding:
// the unit-normalised element-wise mean, in slice order. A profile
// analysed over N runs gets the centroid of its runs, which is more
// stable than any single run. Empty input (or all-zero vectors)
// yields the zero vector.
func Combine(vecs [][]float64) []float64 {
	out := make([]float64, Dim)
	for _, v := range vecs {
		for i := 0; i < Dim && i < len(v); i++ {
			out[i] += v[i]
		}
	}
	norm := 0.0
	for _, v := range out {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// Distance is the Euclidean distance between two embeddings. Inputs
// are unit vectors, so the range is [0, 2].
func Distance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
