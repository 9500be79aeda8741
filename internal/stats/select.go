package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Order statistics by selection. The cleaners and the workload
// fingerprint need a few order statistics of a ~400-sample series —
// medians, MADs, percentiles — and sorting the whole series for them
// costs O(n log n) where selection costs O(n). The selector is a
// quickselect with three-way partitioning, because multiplexed
// counter series repeat zeros and saturated values and a rank that
// lands in a run of equal values is found in one partition step; a
// depth limit falls back to sorting the remaining range, so the worst
// case stays O(n log n). It is deterministic (median-of-three pivots,
// no RNG).
//
// Median and Quantiles return, at every rank they use, the value that
// sort.Float64s would put there: equal keys are interchangeable, so
// the one thing that may differ is the sign of a zero at the selected
// rank, which no caller tells apart. An input holding a NaN takes the
// sort path instead, so NaN behaviour is exactly sort.Float64s'.

// selectSortCutoff is the range length below which selection finishes
// with an insertion sort.
const selectSortCutoff = 12

// Quantiles writes to out[i] the ps[i]-quantile of xs, interpolated
// linearly between the order statistics at ranks ⌊f⌋ and ⌈f⌉ with
// f = ps[i]·(len(xs)−1), exactly as a lookup into the sorted sample
// would. Every p must lie within [0, 1], and out must be at least as
// long as ps. xs is reordered; it must not be empty.
func Quantiles(xs, ps, out []float64) {
	n := len(xs)
	var buf, ubuf [8]int
	ranks := buf[:0]
	for _, p := range ps {
		f := p * float64(n-1)
		ranks = append(ranks, int(math.Floor(f)), int(math.Ceil(f)))
	}
	if hasNaN(xs) {
		sort.Float64s(xs)
	} else {
		// Neighbouring quantiles can share ranks, and ⌈f⌉ of one can
		// exceed ⌊f⌋ of the next: order the ranks and drop repeats.
		uniq := ubuf[:0]
		for _, r := range ranks {
			j := len(uniq)
			for j > 0 && uniq[j-1] > r {
				j--
			}
			if j > 0 && uniq[j-1] == r {
				continue
			}
			uniq = append(uniq, 0)
			copy(uniq[j+1:], uniq[j:])
			uniq[j] = r
		}
		selectRanks(xs, 0, uniq)
	}
	for i, p := range ps {
		f := p * float64(n-1)
		lo, hi := ranks[2*i], ranks[2*i+1]
		if lo == hi {
			out[i] = xs[lo]
			continue
		}
		frac := f - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
}

// hasNaN reports whether xs holds a NaN.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

// selectRanks places the order statistic of every rank in ranks
// (absolute, ascending, distinct, all within [off, off+len(xs))) at its
// index of xs, where xs is the part of a larger slice that starts at
// index off. It selects the middle rank, then the lower ranks in the
// part before it and the higher ranks in the part after it; the two
// parts are disjoint, so no selection disturbs another. A rank at the
// top of its part, as the lower rank of an interpolated quantile is
// once the upper one is placed, is that part's maximum and needs a
// scan, not a selection.
func selectRanks(xs []float64, off int, ranks []int) {
	if len(ranks) == 0 {
		return
	}
	m := len(ranks) / 2
	k := ranks[m] - off
	if k == len(xs)-1 {
		swapMax(xs)
	} else {
		selectRank(xs, k)
	}
	selectRanks(xs[:k], off, ranks[:m])
	selectRanks(xs[k+1:], off+k+1, ranks[m+1:])
}

// swapMax moves the maximum of xs to its last index.
func swapMax(xs []float64) {
	j := 0
	for i, x := range xs {
		if x > xs[j] {
			j = i
		}
	}
	last := len(xs) - 1
	xs[last], xs[j] = xs[j], xs[last]
}

// selectRank reorders xs, which must hold no NaN, so that xs[k] holds
// the value at index k of xs sorted ascending, every value before it
// is no greater and every value after it is no smaller.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for limit := 2 * bits.Len(uint(len(xs))); hi-lo > selectSortCutoff; limit-- {
		if limit == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		lt, gt := partition3(xs[lo:hi], p, k-lo)
		lt, gt = lo+lt, lo+gt
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	insertionSort(xs[lo:hi])
}

// partition3 reorders xs into the values below p, those equal to p
// and those above it, and returns the bounds [lt, gt) of the equal
// part. When k falls below the equal part it returns before sorting
// the rest (gt is then len(xs)). Each pass is a Lomuto sweep that
// swaps unconditionally and advances its boundary by a comparison the
// compiler turns into a conditional move, so the sweep does not stall
// on mispredicted branches: the first sweep moves the values below p
// to the front, the second splits the rest into values equal to p and
// values above it.
func partition3(xs []float64, p float64, k int) (lt, gt int) {
	for i, v := range xs {
		xs[i] = xs[lt]
		xs[lt] = v
		if v < p {
			lt++
		}
	}
	if k < lt {
		return lt, len(xs)
	}
	gt = lt
	rest := xs[lt:]
	for i, v := range rest {
		rest[i] = xs[gt]
		xs[gt] = v
		if v <= p {
			gt++
		}
	}
	return lt, gt
}

func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > v; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
}
