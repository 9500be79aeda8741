package sgbrt

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// friedmanData generates the classic Friedman #1 benchmark function
// with nNoise additional pure-noise features.
func friedmanData(rng *rand.Rand, n, nNoise int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, 5+nNoise)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 10*math.Sin(math.Pi*row[0]*row[1]) +
			20*(row[2]-0.5)*(row[2]-0.5) +
			10*row[3] + 5*row[4] + rng.NormFloat64()*0.5
	}
	return X, y
}

func TestEnsembleBeatsMeanBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := friedmanData(rng, 800, 3)
	Xtest, ytest := friedmanData(rng, 200, 3)

	e, err := Fit(X, y, Params{Trees: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.PredictAll(Xtest)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))

	sseModel, sseMean := 0.0, 0.0
	for i := range ytest {
		dm := ytest[i] - pred[i]
		db := ytest[i] - mean
		sseModel += dm * dm
		sseMean += db * db
	}
	if sseModel > sseMean/4 {
		t.Errorf("model SSE %v not ≪ baseline SSE %v", sseModel, sseMean)
	}
}

func TestEnsembleDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := friedmanData(rng, 200, 2)
	e1, err := Fit(X, y, Params{Trees: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Fit(X, y, Params{Trees: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p1, _ := e1.Predict(X[i])
		p2, _ := e2.Predict(X[i])
		if p1 != p2 {
			t.Fatalf("same seed, different predictions: %v vs %v", p1, p2)
		}
	}
}

func TestImportancesIdentifyRelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	X, y := friedmanData(rng, 1000, 5) // features 0-4 relevant, 5-9 noise
	e, err := Fit(X, y, Params{Trees: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	imp := e.Importances()
	if len(imp) != 10 {
		t.Fatalf("importances length = %d", len(imp))
	}
	total := 0.0
	relevant, noise := 0.0, 0.0
	for j, v := range imp {
		total += v
		if v < 0 {
			t.Errorf("negative importance %v at %d", v, j)
		}
		if j < 5 {
			relevant += v
		} else {
			noise += v
		}
	}
	if !approx(total, 100, 1e-6) {
		t.Errorf("importances sum = %v, want 100", total)
	}
	if relevant < 90 {
		t.Errorf("relevant features hold %v%% importance, want > 90%%", relevant)
	}
	_ = noise
}

func TestImportancesEmptyEnsemble(t *testing.T) {
	e := &Ensemble{nFeatures: 3}
	imp := e.Importances()
	for _, v := range imp {
		if v != 0 {
			t.Errorf("empty ensemble importance = %v", imp)
		}
	}
}

func TestMAPE(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	y := []float64{10, 10, 10, 10, 20, 20, 20, 20}
	e, err := Fit(X, y, Params{Trees: 50, Subsample: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mape, err := e.MAPE(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 5 {
		t.Errorf("in-sample MAPE = %v%%, want small", mape)
	}
	// All-zero targets are undefined.
	if _, err := e.MAPE([][]float64{{1}}, []float64{0}); err == nil {
		t.Error("MAPE with all-zero targets should error")
	}
	if _, err := e.MAPE(X, y[:2]); err == nil {
		t.Error("MAPE with length mismatch should error")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, Params{}); err == nil {
		t.Error("empty should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Error("mismatch should error")
	}
	if _, err := Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}, Params{}); err == nil {
		t.Error("ragged should error")
	}
	if _, err := Fit([][]float64{{math.NaN()}}, []float64{1}, Params{}); err == nil {
		t.Error("NaN input should error")
	}
	if _, err := Fit([][]float64{{math.Inf(1)}}, []float64{1}, Params{}); err == nil {
		t.Error("Inf input should error")
	}
	// A non-finite target used to fit "successfully": every prediction
	// NaN, every importance 0.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, bad, 3}, Params{Trees: 2}); err == nil {
			t.Errorf("target %v should error", bad)
		}
	}
	ps, err := Presort([][]float64{{1, 2}, {3, 4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, features := range [][]int{nil, {2}, {-1}} {
		if _, err := ps.FitCtx(context.Background(), features, []float64{1, 2}, Params{Trees: 1}, nil); err == nil {
			t.Errorf("features %v should error", features)
		}
	}
}

func TestPredictValidation(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{1, 2, 3, 4}
	e, err := Fit(X, y, Params{Trees: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict([]float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if e.NumTrees() != 5 {
		t.Errorf("NumTrees = %d", e.NumTrees())
	}
	if e.NumFeatures() != 2 {
		t.Errorf("NumFeatures = %d", e.NumFeatures())
	}
}

func TestMoreTreesReduceTrainingError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := friedmanData(rng, 400, 2)
	small, err := Fit(X, y, Params{Trees: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Fit(X, y, Params{Trees: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mSmall, _ := small.MAPE(X, y)
	mLarge, _ := large.MAPE(X, y)
	if mLarge >= mSmall {
		t.Errorf("200-tree MAPE %v >= 10-tree MAPE %v", mLarge, mSmall)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Trees != 200 || p.LearningRate != 0.1 || p.Subsample != 0.7 || p.MaxDepth != 3 || p.MinLeaf != 1 {
		t.Errorf("defaults = %+v", p)
	}
	p = Params{Subsample: 1.5}.withDefaults()
	if p.Subsample != 0.7 {
		t.Errorf("out-of-range subsample not defaulted: %v", p.Subsample)
	}
}
