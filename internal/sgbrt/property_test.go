package sgbrt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a regression tree's prediction is always within the range
// of the training targets (leaf values are means of target subsets).
func TestTreePredictionBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		min, max := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.NormFloat64() * 50
			if y[i] < min {
				min = y[i]
			}
			if y[i] > max {
				max = y[i]
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		tree, err := buildTree(X, y, idx, TreeParams{MaxDepth: 4})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			p, err := tree.Predict([]float64{rng.Float64() * 20, rng.Float64() * 20})
			if err != nil || p < min-1e-9 || p > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: split improvements are non-negative, so importances are
// non-negative and sum to 100 (or all zero).
func TestImportanceInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			y[i] = X[i][0] + rng.NormFloat64()*0.2
		}
		e, err := Fit(X, y, Params{Trees: 20, Seed: seed})
		if err != nil {
			return false
		}
		total := 0.0
		for _, v := range e.Importances() {
			if v < 0 {
				return false
			}
			total += v
		}
		return total == 0 || math.Abs(total-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the ensemble's predictions after each stage (base plus the
// shrunk leaves of the trees so far) converge monotonically in
// training MSE (each boosting stage reduces or maintains the training
// error for shrinkage <= 1 on the full sample).
func TestBoostingMonotoneTrainingMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 5, rng.Float64() * 5}
		y[i] = math.Sin(X[i][0]) * X[i][1]
	}
	e, err := Fit(X, y, Params{Trees: 40, Subsample: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mse := make([]float64, e.NumTrees())
	for i, row := range X {
		p := e.base
		for k, tr := range e.trees {
			p = e.addStage(p, tr.predictUnchecked(row))
			d := p - y[i]
			mse[k] += d * d
		}
	}
	worsened := 0
	for k := 1; k < len(mse); k++ {
		if mse[k] > mse[k-1]*1.0001 {
			worsened++
		}
	}
	// With full-sample fitting, training MSE is non-increasing up to
	// numerical slack; allow a couple of ties.
	if worsened > 2 {
		t.Errorf("training MSE worsened on %d/%d stages", worsened, len(mse)-1)
	}
}
