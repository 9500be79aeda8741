package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdenticalSeriesZeroDistance(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	d, err := Distance(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("DTW(s, s) = %v, want 0", d)
	}
}

func TestEmptySeriesError(t *testing.T) {
	if _, err := Distance(nil, []float64{1}); err == nil {
		t.Error("empty s1 should error")
	}
	if _, err := Distance([]float64{1}, nil); err == nil {
		t.Error("empty s2 should error")
	}
}

func TestKnownSmallCase(t *testing.T) {
	// Hand-computed: s1={0,1,2}, s2={0,2}.
	// Optimal alignment: (0,0)=0, (1,1)=1, (2,1)=0 -> 1.
	d, err := Distance([]float64{0, 1, 2}, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, 1, 1e-12) {
		t.Errorf("DTW = %v, want 1", d)
	}
}

func TestTimeShiftToleratedBetterThanEuclidean(t *testing.T) {
	// A pulse shifted by 2 positions: Euclidean distance would be large,
	// DTW should be small.
	s1 := []float64{0, 0, 10, 0, 0, 0, 0}
	s2 := []float64{0, 0, 0, 0, 10, 0, 0}
	d, err := Distance(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	euclid := 0.0
	for i := range s1 {
		euclid += math.Abs(s1[i] - s2[i])
	}
	if d >= euclid {
		t.Errorf("DTW = %v not better than pointwise %v", d, euclid)
	}
	if d != 0 {
		t.Errorf("DTW of shifted pulse = %v, want 0", d)
	}
}

func TestDifferentLengths(t *testing.T) {
	s1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	s2 := []float64{1, 3, 5, 7} // same ramp, half the samples
	d, err := Distance(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	// Each s2 point can absorb its neighbours cheaply; distance stays
	// well below the naive truncation distance.
	if d > 4 {
		t.Errorf("DTW of subsampled ramp = %v, want small", d)
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n1, n2 := 5+rng.Intn(50), 5+rng.Intn(50)
		s1 := make([]float64, n1)
		s2 := make([]float64, n2)
		for i := range s1 {
			s1[i] = rng.Float64() * 100
		}
		for i := range s2 {
			s2[i] = rng.Float64() * 100
		}
		d12, err1 := Distance(s1, s2)
		d21, err2 := Distance(s2, s1)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !approx(d12, d21, 1e-9) {
			t.Fatalf("DTW not symmetric: %v vs %v", d12, d21)
		}
	}
}

func TestWindowedMatchesFullWhenWide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s1 := make([]float64, 40)
	s2 := make([]float64, 37)
	for i := range s1 {
		s1[i] = rng.NormFloat64()
	}
	for i := range s2 {
		s2[i] = rng.NormFloat64()
	}
	full, err := Distance(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	banded, err := DistanceOpt(s1, s2, Options{Window: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(full, banded, 1e-9) {
		t.Errorf("wide band %v != full %v", banded, full)
	}
}

func TestWindowedIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s1 := make([]float64, 30+rng.Intn(20))
		s2 := make([]float64, 30+rng.Intn(20))
		for i := range s1 {
			s1[i] = rng.Float64()
		}
		for i := range s2 {
			s2[i] = rng.Float64()
		}
		full, err := Distance(s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		banded, err := DistanceOpt(s1, s2, Options{Window: 5})
		if err != nil {
			t.Fatal(err)
		}
		if banded < full-1e-9 {
			t.Fatalf("banded %v below full %v", banded, full)
		}
	}
}

func TestMLPXErrorPerfectMeasurement(t *testing.T) {
	ocoe := []float64{1, 2, 3, 4}
	// dist_ref == dist_mea => error 0.
	e, err := MLPXError(ocoe, []float64{1, 2, 3, 5}, []float64{1, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(e, 0, 1e-9) {
		t.Errorf("error = %v, want 0", e)
	}
}

func TestMLPXErrorGrowsWithDistortion(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ocoe1 := make([]float64, 100)
	ocoe2 := make([]float64, 100)
	for i := range ocoe1 {
		base := 10 + 5*math.Sin(float64(i)/10)
		ocoe1[i] = base + rng.NormFloat64()*0.1
		ocoe2[i] = base + rng.NormFloat64()*0.1
	}
	mild := make([]float64, 100)
	severe := make([]float64, 100)
	copy(mild, ocoe1)
	copy(severe, ocoe1)
	for i := 0; i < 100; i += 10 {
		mild[i] += 2
		severe[i] += 20
	}
	eMild, err := MLPXError(ocoe1, ocoe2, mild)
	if err != nil {
		t.Fatal(err)
	}
	eSevere, err := MLPXError(ocoe1, ocoe2, severe)
	if err != nil {
		t.Fatal(err)
	}
	if eSevere <= eMild {
		t.Errorf("severe distortion error %v <= mild %v", eSevere, eMild)
	}
}

func TestMLPXErrorIdenticalEverything(t *testing.T) {
	s := []float64{1, 2, 3}
	e, err := MLPXError(s, s, s)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("all-identical error = %v, want 0", e)
	}
}

// Property: DTW distance is never negative and is zero iff an exact
// warp exists (weaker check: identical series give zero).
func TestNonNegativityProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		// Counter values are physical quantities; bound magnitudes so
		// the accumulated cost cannot overflow float64.
		clamp := func(xs []float64) []float64 {
			out := make([]float64, 0, len(xs))
			for _, v := range xs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				out = append(out, math.Mod(v, 1e9))
			}
			return out
		}
		a, b = clamp(a), clamp(b)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		d, err := Distance(a, b)
		return err == nil && d >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowTooNarrowOnVeryUnequalLengths(t *testing.T) {
	// Band width 1 with a 10:1 length ratio leaves reachable cells, but
	// the path must still be found or a clear error returned.
	s1 := make([]float64, 100)
	s2 := []float64{1, 2, 3}
	_, err := DistanceOpt(s1, s2, Options{Window: 1})
	// Either outcome is acceptable as long as it does not panic; but it
	// must be deterministic.
	_, err2 := DistanceOpt(s1, s2, Options{Window: 1})
	if (err == nil) != (err2 == nil) {
		t.Error("windowed DTW nondeterministic")
	}
}
