package clean

import (
	"math"
	"math/rand"
	"testing"
)

// trustedCorrelationByIndex is the correlation as computed before the
// trust masks were stored: collect the shared trusted intervals (up to
// maxCorrPoints) into an index slice, then make the centred pass over
// that slice.
func trustedCorrelationByIndex(a, b *bayesSeries) (float64, bool) {
	var n int
	var sumA, sumB float64
	idx := make([]int, 0, maxCorrPoints)
	for t := 0; t < len(a.values) && n < maxCorrPoints; t++ {
		if a.trusted(t) && b.trusted(t) {
			idx = append(idx, t)
			sumA += a.values[t]
			sumB += b.values[t]
			n++
		}
	}
	if n < minPeerOverlap {
		return 0, false
	}
	meanA, meanB := sumA/float64(n), sumB/float64(n)
	var cov, varA, varB float64
	for _, t := range idx {
		da, db := a.values[t]-meanA, b.values[t]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0, false
	}
	return cov / math.Sqrt(varA*varB), true
}

// TestTrustedCorrelationMatchesIndexForm compares trustedCorrelation
// bit for bit with the index-slice form on masks with gaps, on series
// shorter and longer than the maxCorrPoints cap, and on overlaps too
// short to be believed.
func TestTrustedCorrelationMatchesIndexForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	series := func(n int, trustP float64) *bayesSeries {
		p := &bayesSeries{values: make([]float64, n), trust: make([]bool, n)}
		for i := range p.values {
			p.values[i] = 1e6*math.Sin(float64(i)/9) + rng.NormFloat64()*1e5
			p.trust[i] = rng.Float64() < trustP
		}
		return p
	}
	cases := 0
	for _, n := range []int{12, 100, maxCorrPoints - 1, maxCorrPoints, maxCorrPoints + 1, 900, 2000} {
		for _, trustP := range []float64{0.05, 0.3, 0.8, 1} {
			a, b := series(n, trustP), series(n, trustP)
			// A run of distrust in both, as a burst of missing
			// intervals leaves.
			for i := n / 3; i < n/3+n/10; i++ {
				a.trust[i], b.trust[i] = false, false
			}
			got, gotOK := trustedCorrelation(a, b)
			want, wantOK := trustedCorrelationByIndex(a, b)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trust=%v: got (%v, %v), want (%v, %v)", n, trustP, got, gotOK, want, wantOK)
			}
			if gotOK {
				cases++
			}
		}
	}
	if cases < 10 {
		t.Fatalf("only %d cases had enough overlap to correlate", cases)
	}
}
