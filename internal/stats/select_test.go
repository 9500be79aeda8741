package stats

import (
	"math"
	"sort"
	"testing"
)

// fuzzValue maps one fuzz byte to a sample value. Most bytes land on a
// coarse grid, so duplicates are common, as in multiplexed series that
// repeat zeros and saturated readings; the top bytes are the values a
// sort must order carefully.
func fuzzValue(b byte) float64 {
	switch b {
	case 250:
		return math.Copysign(0, -1)
	case 251:
		return math.NaN()
	case 252:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 254:
		return math.MaxFloat64
	case 255:
		return math.SmallestNonzeroFloat64
	}
	return float64(int(b)-125) / 4
}

// sameValue says a and b are equal as order statistics: equal values
// (so +0 matches −0) or both NaN.
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// medianBySort is Median as it was computed before selection: the
// middle of a sorted copy.
func medianBySort(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// percentileBySort is the workload fingerprint's percentile as it was
// computed before selection: linear interpolation into a sorted copy.
func percentileBySort(sorted []float64, p float64) float64 {
	f := p * float64(len(sorted)-1)
	lo := int(math.Floor(f))
	hi := int(math.Ceil(f))
	if lo == hi {
		return sorted[lo]
	}
	frac := f - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// fingerprintPs are the percentiles the workload fingerprint takes.
var fingerprintPs = []float64{0.05, 0.50, 0.95}

// FuzzOrderStatistics checks the selection helper, Median and
// Quantiles against their sort-based references on arbitrary samples:
// every value must equal the sorted sample's (up to the sign of a
// zero), selection must leave xs partitioned around the rank, and
// Median must not modify its input.
func FuzzOrderStatistics(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, k uint16) {
		if len(raw) == 0 {
			return
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = fuzzValue(b)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		rank := int(k) % len(xs)

		if !hasNaN(xs) {
			sel := append([]float64(nil), xs...)
			selectRank(sel, rank)
			if !sameValue(sel[rank], sorted[rank]) {
				t.Fatalf("selectRank(%v, %d) put %v, sorted has %v", xs, rank, sel[rank], sorted[rank])
			}
			for i, v := range sel {
				if (i < rank && v > sel[rank]) || (i > rank && v < sel[rank]) {
					t.Fatalf("selectRank(%v, %d) left %v at %d: %v", xs, rank, v, i, sel)
				}
			}
		}

		before := append([]float64(nil), xs...)
		if got, want := Median(xs), medianBySort(xs); !sameValue(got, want) {
			t.Fatalf("Median(%v) = %v, want %v", xs, got, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("Median modified its input at %d", i)
			}
		}

		ps := append([]float64(nil), fingerprintPs...)
		if p := float64(k) / math.MaxUint16; p > ps[len(ps)-1] {
			ps = append(ps, p)
		}
		got := make([]float64, len(ps))
		Quantiles(append([]float64(nil), xs...), ps, got)
		for i, p := range ps {
			if want := percentileBySort(sorted, p); !sameValue(got[i], want) {
				t.Fatalf("Quantiles(%v) at p=%v = %v, want %v", xs, p, got[i], want)
			}
		}
	})
}

// TestSelectLongSeries runs selection on series long enough to take
// several partition passes: distinct values, a saturated run and a
// mostly-zero series, each at every rank of a stride.
func TestSelectLongSeries(t *testing.T) {
	const n = 1000
	series := map[string]func(i int) float64{
		"distinct":  func(i int) float64 { return float64((i * 7919) % n) },
		"saturated": func(i int) float64 { return math.Min(float64((i*31)%97), 40) },
		"zeros": func(i int) float64 {
			if i%5 != 0 {
				return 0
			}
			return float64(i % 13)
		},
	}
	for name, gen := range series {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for k := 0; k < n; k += 37 {
			sel := append([]float64(nil), xs...)
			if selectRank(sel, k); sel[k] != sorted[k] {
				t.Fatalf("%s: selectRank %d put %v, want %v", name, k, sel[k], sorted[k])
			}
		}
		if got, want := Median(xs), medianBySort(xs); got != want {
			t.Fatalf("%s: Median = %v, want %v", name, got, want)
		}
	}
}
