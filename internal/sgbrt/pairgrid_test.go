package sgbrt

import (
	"math"
	"math/rand"
	"testing"
)

// checkPairGrid compares every cell of PredictPairGrid with Predict on
// the cell's point, bit for bit.
func checkPairGrid(t *testing.T, e *Ensemble, x []float64, a, b int, gridA, gridB []float64) {
	t.Helper()
	out := make([]float64, len(gridA)*len(gridB))
	if err := e.PredictPairGrid(x, a, b, gridA, gridB, out); err != nil {
		t.Fatal(err)
	}
	point := append([]float64(nil), x...)
	for i, va := range gridA {
		for j, vb := range gridB {
			point[a], point[b] = va, vb
			want, err := e.Predict(point)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[i*len(gridB)+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair (%d,%d) cell (%d,%d): grid %v, Predict %v", a, b, i, j, got, want)
			}
		}
	}
}

// TestPredictPairGridMatchesPredict checks the grid evaluator against
// Predict on fitted ensembles over random data with tied values, for
// every ordered pair of features, at grids drawn from the training
// values.
func TestPredictPairGridMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nf := range []int{2, 5, 10} {
		X := make([][]float64, 300)
		y := make([]float64, len(X))
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = math.Round(rng.NormFloat64()*8) / 2 // ties on purpose
			}
			y[i] = X[i][0]*X[i][1%nf] + 3*X[i][nf-1] + rng.NormFloat64()
		}
		e, err := Fit(X, y, Params{Trees: 60, MaxDepth: 4, Seed: int64(nf)})
		if err != nil {
			t.Fatal(err)
		}
		x := X[rng.Intn(len(X))]
		for a := 0; a < nf; a++ {
			for b := 0; b < nf; b++ {
				if a == b {
					continue
				}
				gridA := make([]float64, 12)
				gridB := make([]float64, 7)
				for i := range gridA {
					gridA[i] = X[rng.Intn(len(X))][a]
				}
				for j := range gridB {
					gridB[j] = X[rng.Intn(len(X))][b]
				}
				checkPairGrid(t, e, x, a, b, gridA, gridB)
			}
		}
	}
}

// TestPredictPairGridReachCases pins the four kinds of tree the
// evaluator tells apart: with x[2] = 0, tree 0 reaches no split on
// feature 0 or 1 (its split on 0 sits behind x[2] > 5), tree 1 only
// splits on 0, tree 2 only on 1, and tree 3 on both, one behind the
// other, with unsorted grids and grid values equal to thresholds.
func TestPredictPairGridReachCases(t *testing.T) {
	leaf := func(v float64) node { return node{feature: -1, left: -1, right: -1, value: v} }
	split := func(f int, thr float64, l, r int) node {
		return node{feature: f, threshold: thr, left: l, right: r}
	}
	trees := []*Tree{
		{nFeatures: 3, nodes: []node{split(2, 5, 1, 2), leaf(0.25), split(0, 1, 3, 4), leaf(-7), leaf(9)}},
		{nFeatures: 3, nodes: []node{split(0, 0.5, 1, 2), leaf(1.5), split(0, 2, 3, 4), leaf(-0.3), leaf(3.1)}},
		{nFeatures: 3, nodes: []node{split(2, -1, 1, 2), leaf(100), split(1, 1, 3, 4), leaf(0.7), leaf(-2.2)}},
		{nFeatures: 3, nodes: []node{split(1, 0, 1, 4), split(0, 1, 2, 3), leaf(0.11), leaf(0.13), split(0, -1, 5, 6), leaf(0.17), leaf(1.9)}},
	}
	e := &Ensemble{params: Params{LearningRate: 0.1}, base: 1.0 / 3, trees: trees, nFeatures: 3}
	x := []float64{0.3, -0.4, 0}
	gridA := []float64{2, -3, 0.5, 1, -1, 4, 0.6}
	gridB := []float64{1, -2, 0, 0.5, 3}
	checkPairGrid(t, e, x, 0, 1, gridA, gridB)
	checkPairGrid(t, e, x, 1, 0, gridB, gridA)
	checkPairGrid(t, e, x, 0, 2, gridA, []float64{-2, 6})
	checkPairGrid(t, e, x, 2, 1, []float64{7, -3}, gridB)
}

func TestPredictPairGridRejectsBadShapes(t *testing.T) {
	e := &Ensemble{params: Params{LearningRate: 0.1}, nFeatures: 3}
	x := []float64{0, 0, 0}
	g := []float64{1, 2}
	out := make([]float64, 4)
	for name, err := range map[string]error{
		"short x":      e.PredictPairGrid(x[:2], 0, 1, g, g, out),
		"same feature": e.PredictPairGrid(x, 1, 1, g, g, out),
		"feature oob":  e.PredictPairGrid(x, 0, 3, g, g, out),
		"wrong out":    e.PredictPairGrid(x, 0, 1, g, g, out[:3]),
		"wide grid":    e.PredictPairGrid(x, 0, 1, make([]float64, 65), g, make([]float64, 130)),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
