// The bayes cleaner corrects multiplexing errors by Bayesian inference
// over what is known about the events, BayesPerf-style, instead of the
// paper's threshold-replace + KNN pipeline:
//
//   - Physics of the error. Under G-group multiplexing a burst caught in
//     the event's live slice extrapolates to roughly G×truth (the
//     kernel scales the slice count by G), and a missed burst reads
//     zero. When the collection's group count is known (Meta.Groups),
//     an extreme outlier is therefore evidence of a caught burst whose
//     true value is ≈ value/(0.9·G) — the interval's actual magnitude,
//     which a histogram bin-median replacement throws away.
//   - Event structure. The catalogue (internal/sim) says which events
//     have genuine long-tail (GEV) value distributions; their outlier
//     threshold is widened so real spikes are not "corrected" away.
//   - Pairwise relations. Events sampled in the same run observe the
//     same program phases, so a missing interval in one series can be
//     inferred from how correlated peer series moved at that instant.
//
// Every suspect value is replaced by the precision-weighted fusion of
// the available estimates (burst inversion, temporal neighbours, peer
// regression) — a Gaussian posterior mean with per-source variances.
//
// Determinism contract: the inference is bit-identical at every worker
// count and across cluster topologies. Each series is repaired from the
// immutable input set only (never from another series' repairs), all
// reductions run in fixed event order, and the only randomness — peer
// candidate subsampling on very wide sets — comes from a splitmix64
// generator keyed purely by the event name, so the same input always
// draws the same peers.
package clean

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"counterminer/internal/parallel"
	"counterminer/internal/sim"
	"counterminer/internal/stats"
	"counterminer/internal/timeseries"
)

// BayesCleaner is the registry name of the Bayesian error-correction
// cleaner.
const BayesCleaner = "bayes"

const (
	// overshootMean is the expected caught-burst extrapolation factor
	// per group: the kernel overshoots by G·(0.8+0.2u), u uniform, so
	// the inverse estimate divides by 0.9·G.
	overshootMean = 0.9
	// overshootRelSD is the relative uncertainty of the burst-inversion
	// estimate: the spread of the 0.8–1.0 overshoot factor plus counter
	// read noise.
	overshootRelSD = 0.12
	// gevTailFactor widens the outlier threshold for events whose value
	// distribution is genuinely long-tailed (GEV): their big values are
	// usually real, not multiplexing artifacts.
	gevTailFactor = 1.5
	// maxPeerCandidates bounds how many peer series are examined for
	// correlation; wider sets are subsampled with the keyed generator.
	maxPeerCandidates = 16
	// maxPeers is how many top-correlated peers contribute evidence.
	maxPeers = 4
	// minPeerOverlap is the minimum number of commonly trusted
	// intervals required before a peer's correlation is believed.
	minPeerOverlap = 8
	// maxCorrPoints caps the correlation computation per peer pair.
	maxCorrPoints = 512
)

// bayes implements Cleaner. It is stateless apart from the lazily
// built event catalogue (deterministic, shared across calls).
type bayes struct {
	once sync.Once
	cat  *sim.Catalogue
}

func newBayes() *bayes { return &bayes{} }

// Name returns the registry name.
func (b *bayes) Name() string { return BayesCleaner }

func (b *bayes) catalogue() *sim.Catalogue {
	b.once.Do(func() { b.cat = sim.NewCatalogue() })
	return b.cat
}

// bayesSeries is one series' phase-1 profile: the raw copy, the suspect
// masks, and the robust statistics every estimate below builds on. The
// profile is immutable during phase 2 so series can repair in parallel
// while reading their peers' profiles.
type bayesSeries struct {
	values    []float64
	isMissing []bool // zeros classified missing + non-finite garbage
	missing   []int
	outliers  []int   // burst-overshoot suspects
	trust     []bool  // neither missing nor an outlier: see trusted
	med       float64 // robust location of the trusted values
	sigma     float64 // robust scale (1.4826·MAD, std fallback)
	threshold float64
	nonFinite int
	zerosKept bool
	gev       bool // catalogue says genuine long-tail distribution
}

// trusted reports whether interval t carries a believable raw value.
func (p *bayesSeries) trusted(t int) bool { return p.trust[t] }

// Clean repairs every series of the set with Bayesian inference. See
// the package comment of this file for the model and the determinism
// contract.
func (b *bayes) Clean(ctx context.Context, in *timeseries.Set, meta Meta, opts Options) (*timeseries.Set, SetReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, SetReport{}, err
	}
	opts = opts.withDefaults()
	events := in.Events()

	// Phase 1: profile every series (suspect masks + robust stats),
	// reading only the immutable input.
	profs, err := parallel.MapCtx(ctx, len(events), opts.Workers, func(i int) (*bayesSeries, error) {
		s, err := in.Lookup(events[i])
		if err != nil {
			return nil, fmt.Errorf("clean: %w", err)
		}
		p, err := b.profile(s.Values, events[i], opts)
		if err != nil {
			return nil, fmt.Errorf("clean: event %s: %w", events[i], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, SetReport{}, err
	}

	// Phase 2: repair. Each series fuses its own temporal evidence with
	// its peers' phase-1 profiles; nobody reads anybody's repairs, so
	// the outcome is independent of scheduling.
	type repaired struct {
		values []float64
		rep    Report
	}
	results, err := parallel.MapCtx(ctx, len(events), opts.Workers, func(i int) (repaired, error) {
		values, rep := b.repair(i, profs, events, meta, opts)
		return repaired{values, rep}, nil
	})
	if err != nil {
		return nil, SetReport{}, err
	}

	out := timeseries.NewSet()
	rep := SetReport{PerEvent: make(map[string]Report, len(events))}
	for i, ev := range events {
		out.Put(timeseries.New(ev, results[i].values))
		rep.PerEvent[ev] = results[i].rep
		rep.TotalOutliers += results[i].rep.Outliers
		rep.TotalMissing += results[i].rep.Missing
	}
	return out, rep, nil
}

// profile computes one series' suspect masks and robust statistics.
func (b *bayes) profile(values []float64, event string, opts Options) (*bayesSeries, error) {
	if len(values) == 0 {
		return nil, errors.New("empty series")
	}
	opts = opts.withDefaults()
	p := &bayesSeries{
		values:    append([]float64(nil), values...),
		isMissing: make([]bool, len(values)),
	}
	if meta, ok := b.catalogue().ByName(event); ok {
		p.gev = meta.Dist == sim.DistGEV
	}

	// Non-finite garbage is always a repair target and never a
	// statistic.
	finite := make([]float64, 0, len(values))
	for t, v := range p.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p.isMissing[t] = true
			p.missing = append(p.missing, t)
			p.nonFinite++
			continue
		}
		finite = append(finite, v)
	}
	if len(finite) == 0 {
		return nil, errors.New("no finite values in series")
	}

	// Zeros are missed-burst suspects unless the §III-B-2 genuine-zero
	// rule holds (same rule as the threshold-knn cleaner, so the two
	// agree on what "missing" means).
	if !opts.SkipMissing {
		min, max := stats.MinMax(finite)
		if min == 0 && max < zeroBound {
			p.zerosKept = true
		} else {
			for t, v := range p.values {
				if v == 0 && !p.isMissing[t] {
					p.isMissing[t] = true
					p.missing = append(p.missing, t)
				}
			}
		}
	}
	sort.Ints(p.missing)

	present := make([]float64, 0, len(p.values))
	for t, v := range p.values {
		if !p.isMissing[t] {
			present = append(present, v)
		}
	}
	if len(present) == 0 {
		// Every interval is a zero that the genuine-zero rule rejected;
		// nothing trustworthy remains to infer from.
		return nil, errors.New("no trusted values in series")
	}
	p.med = stats.Median(present)
	absDev := make([]float64, len(present))
	for i, v := range present {
		absDev[i] = math.Abs(v - p.med)
	}
	p.sigma = 1.4826 * stats.Median(absDev)
	if p.sigma == 0 {
		// More than half the values identical: MAD collapses; fall back
		// to the standard deviation.
		p.sigma = stats.Std(present)
	}

	// Burst-overshoot suspects: values beyond the robust threshold.
	// Long-tail (GEV) events get a wider threshold — their spikes are
	// usually genuine program behaviour, not multiplexing artifacts.
	mult := opts.N
	if p.gev {
		mult *= gevTailFactor
	}
	p.threshold = p.med + mult*p.sigma
	p.trust = make([]bool, len(p.values))
	for t := range p.trust {
		p.trust[t] = !p.isMissing[t]
	}
	if !opts.SkipOutliers && p.sigma > 0 && len(present) >= 3 {
		for t, v := range p.values {
			if p.trust[t] && v > p.threshold {
				p.trust[t] = false
				p.outliers = append(p.outliers, t)
			}
		}
	}
	return p, nil
}

// repair produces series i's corrected values and report from the
// phase-1 profiles.
func (b *bayes) repair(i int, profs []*bayesSeries, events []string, meta Meta, opts Options) ([]float64, Report) {
	p := profs[i]
	out := append([]float64(nil), p.values...)
	rep := Report{
		NonFinite:        p.nonFinite,
		ZerosKeptGenuine: p.zerosKept,
		Threshold:        p.threshold,
	}

	// --- Outliers: burst inversion fused with the temporal prior.
	if len(p.outliers) > 0 {
		rep.Rounds = 1
		rep.Outliers = len(p.outliers)
		for _, t := range p.outliers {
			muT, okT := temporalPrior(out, p.trusted, t, opts.K)
			if !okT {
				muT = p.med
			}
			est := muT
			if meta.Groups > 1 {
				// Caught burst: truth ≈ v/(0.9·G), with the overshoot
				// spread + read noise as uncertainty. Fuse with the
				// neighbourhood — whose uncertainty is NOT just the
				// noise floor: the neighbours assume no burst happened
				// at t, and the cost of that assumption grows with the
				// burst amplitude the inversion implies.
				xb := out[t] / (overshootMean * float64(meta.Groups))
				varB := sq(overshootRelSD * xb)
				varT := sq(p.sigma) + sq(0.5*(xb-muT))
				est = fuse(xb, varB, muT, varT)
			}
			if est < 0 {
				est = 0
			}
			out[t] = est
		}
	}

	// --- Missing values: temporal prior fused with peer evidence. The
	// temporal neighbourhood may use corrected outliers (they are
	// this series' own repairs); peer evidence reads raw peer values at
	// the peers' trusted intervals only.
	if len(p.missing) > 0 && len(p.missing) < len(out) {
		rep.Missing = len(p.missing)
		peers := b.selectPeers(i, profs, events)
		trustedNow := func(t int) bool { return !p.isMissing[t] }
		for _, t := range p.missing {
			muT, okT := temporalPrior(out, trustedNow, t, opts.K)
			if !okT {
				muT = p.med
			}
			est := muT
			if p.med > 0 {
				// Peer regression: correlated series say how active the
				// program was at t relative to their own typical level;
				// scale this series' typical level by that ratio.
				var ratioSum, wSum float64
				for _, q := range peers {
					qp := profs[q.idx]
					if t >= len(qp.values) || !qp.trusted(t) {
						continue
					}
					ratioSum += q.weight * (qp.values[t] / qp.med)
					wSum += q.weight
				}
				if wSum > 0 {
					xp := p.med * (ratioSum / wSum)
					// The peer estimate's confidence grows with the
					// accumulated correlation weight.
					varT := sq(p.sigma)
					varP := varT / wSum
					est = fuse(muT, varT, xp, varP)
					if !okT {
						est = xp
					}
				}
			}
			if est < 0 {
				est = 0
			}
			out[t] = est
		}
	}
	return out, rep
}

// temporalPrior estimates interval t from the nearest trusted
// neighbours on each side (up to k per side), weighted by inverse
// distance. ok is false when no trusted neighbour exists.
func temporalPrior(values []float64, trusted func(int) bool, t, k int) (mu float64, ok bool) {
	var sum, wsum float64
	found := 0
	for d := 1; d < len(values) && found < 2*k; d++ {
		stepped := false
		if l := t - d; l >= 0 {
			stepped = true
			if trusted(l) {
				w := 1 / float64(d)
				sum += w * values[l]
				wsum += w
				found++
			}
		}
		if r := t + d; r < len(values) {
			stepped = true
			if trusted(r) {
				w := 1 / float64(d)
				sum += w * values[r]
				wsum += w
				found++
			}
		}
		if !stepped {
			break
		}
	}
	if wsum == 0 {
		return 0, false
	}
	return sum / wsum, true
}

// fuse returns the precision-weighted (Gaussian posterior) mean of two
// estimates. Zero variances degenerate gracefully: a perfectly certain
// source dominates; two certain sources average.
func fuse(a, varA, c, varC float64) float64 {
	const eps = 1e-12
	wa := 1 / (varA + eps)
	wc := 1 / (varC + eps)
	return (wa*a + wc*c) / (wa + wc)
}

func sq(x float64) float64 { return x * x }

// peer is one selected evidence source: a series index and its
// correlation-derived weight.
type peer struct {
	idx    int
	weight float64
}

// selectPeers picks the top-correlated peer series for series i. Wide
// sets are first subsampled to maxPeerCandidates with the keyed
// generator (a pure function of the event name), then ranked by squared
// Pearson correlation over commonly trusted intervals with the event
// name as the deterministic tie-break.
func (b *bayes) selectPeers(i int, profs []*bayesSeries, events []string) []peer {
	p := profs[i]
	candidates := make([]int, 0, len(profs)-1)
	for j := range profs {
		if j != i && len(profs[j].values) == len(p.values) && profs[j].med > 0 {
			candidates = append(candidates, j)
		}
	}
	if len(candidates) > maxPeerCandidates {
		r := newKeyedRNG("bayes-peers", events[i])
		// Partial Fisher–Yates: the first maxPeerCandidates slots become
		// the sample.
		for k := 0; k < maxPeerCandidates; k++ {
			j := k + r.intn(len(candidates)-k)
			candidates[k], candidates[j] = candidates[j], candidates[k]
		}
		candidates = candidates[:maxPeerCandidates]
		sort.Ints(candidates)
	}

	scored := make([]peer, 0, len(candidates))
	for _, j := range candidates {
		if c, ok := trustedCorrelation(p, profs[j]); ok {
			scored = append(scored, peer{idx: j, weight: c * c})
		}
	}
	sort.Slice(scored, func(a, c int) bool {
		if scored[a].weight != scored[c].weight {
			return scored[a].weight > scored[c].weight
		}
		return events[scored[a].idx] < events[scored[c].idx]
	})
	if len(scored) > maxPeers {
		scored = scored[:maxPeers]
	}
	return scored
}

// trustedCorrelation computes the Pearson correlation of two series
// over intervals both trust, capped at the first maxCorrPoints of
// them. The first pass sums the shared intervals and stops at the cap;
// the second revisits the same intervals, up to where the first
// stopped, for the centred products.
func trustedCorrelation(a, b *bayesSeries) (float64, bool) {
	ta, tb := a.trust, b.trust[:len(a.trust)]
	var n, end int
	var sumA, sumB float64
	for ; end < len(ta) && n < maxCorrPoints; end++ {
		if ta[end] && tb[end] {
			sumA += a.values[end]
			sumB += b.values[end]
			n++
		}
	}
	if n < minPeerOverlap {
		return 0, false
	}
	meanA, meanB := sumA/float64(n), sumB/float64(n)
	var cov, varA, varB float64
	for t := 0; t < end; t++ {
		if ta[t] && tb[t] {
			da, db := a.values[t]-meanA, b.values[t]-meanB
			cov += da * db
			varA += da * da
			varB += db * db
		}
	}
	if varA == 0 || varB == 0 {
		return 0, false
	}
	return cov / math.Sqrt(varA*varB), true
}

// keyedRNG is a splitmix64 generator seeded from an FNV-1a hash of its
// key parts — the same construction internal/fault uses. Keyed purely
// by stable strings (never by time, worker identity, or map order), it
// makes the peer subsample a pure function of the event name.
type keyedRNG struct{ state uint64 }

func newKeyedRNG(parts ...string) *keyedRNG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, part := range parts {
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return &keyedRNG{state: h}
}

func (r *keyedRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *keyedRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}
