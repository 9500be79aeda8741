package sgbrt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"counterminer/internal/parallel"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// buildTree fits one regression tree on the rows of X indexed by idx,
// on GOMAXPROCS workers.
func buildTree(X [][]float64, y []float64, idx []int, p TreeParams) (*Tree, error) {
	return growTree(X, y, idx, p, 0)
}

// growTree is buildTree on a team of the given number of workers.
func growTree(X [][]float64, y []float64, idx []int, p TreeParams, workers int) (*Tree, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("sgbrt: %d rows but %d targets", len(X), len(y))
	}
	if len(idx) == 0 {
		return nil, errors.New("sgbrt: empty sample index")
	}
	ps, err := Presort(X, workers)
	if err != nil {
		return nil, err
	}
	team := parallel.NewTeam(workers)
	defer team.Close()
	return newBuilder(ps.cols, ps.orders, y, p, team).build(idx)
}

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 1 for x < 5, y = 9 for x >= 5: one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		X = append(X, []float64{float64(i)})
		if i < 5 {
			y = append(y, 1)
		} else {
			y = append(y, 9)
		}
	}
	tree, err := buildTree(X, y, allIdx(20), TreeParams{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		got, err := tree.Predict(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, y[i], 1e-9) {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tree, err := buildTree(X, y, allIdx(4), TreeParams{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("constant target leaves = %d, want 1", tree.NumLeaves())
	}
	got, _ := tree.Predict([]float64{99})
	if got != 5 {
		t.Errorf("Predict = %v, want 5", got)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 100}
		y[i] = math.Sin(X[i][0])
	}
	for _, depth := range []int{1, 2, 3, 5} {
		tree, err := buildTree(X, y, allIdx(n), TreeParams{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Depth(); got > depth+1 {
			t.Errorf("MaxDepth %d: tree depth %d", depth, got)
		}
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = rng.Float64()
	}
	tree, err := buildTree(X, y, allIdx(n), TreeParams{MaxDepth: 20, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tree.nodes {
		if tree.nodes[i].feature < 0 && tree.nodes[i].samples < 10 {
			t.Errorf("leaf with %d samples < MinLeaf 10", tree.nodes[i].samples)
		}
	}
}

func TestTreeSplitsOnInformativeFeature(t *testing.T) {
	// Feature 1 determines y; feature 0 is noise. The root split must
	// use feature 1 and importances must concentrate there.
	rng := rand.New(rand.NewSource(3))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if X[i][1] > 0.5 {
			y[i] = 10
		} else {
			y[i] = -10
		}
	}
	tree, err := buildTree(X, y, allIdx(n), TreeParams{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.nodes[0].feature != 1 {
		t.Errorf("root split on feature %d, want 1", tree.nodes[0].feature)
	}
	imp := make([]float64, 2)
	tree.featureImportance(imp)
	if imp[1] <= imp[0] {
		t.Errorf("importance = %v, feature 1 should dominate", imp)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := buildTree(nil, nil, nil, TreeParams{}); err == nil {
		t.Error("empty X should error")
	}
	if _, err := buildTree([][]float64{{1}}, []float64{1, 2}, allIdx(1), TreeParams{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := buildTree([][]float64{{1}}, []float64{1}, nil, TreeParams{}); err == nil {
		t.Error("empty idx should error")
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	tree, err := buildTree([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}, allIdx(2), TreeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestTreeDuplicateFeatureValues(t *testing.T) {
	// All feature values equal: no split possible, must not divide by zero.
	X := [][]float64{{5}, {5}, {5}, {5}}
	y := []float64{1, 2, 3, 4}
	tree, err := buildTree(X, y, allIdx(4), TreeParams{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("unsplittable data leaves = %d, want 1", tree.NumLeaves())
	}
	got, _ := tree.Predict([]float64{5})
	if !approx(got, 2.5, 1e-12) {
		t.Errorf("Predict = %v, want mean 2.5", got)
	}
}

// TestScanFeatureSegmentOfLargerFit checks scanFeature against the
// division-only reference on random node segments of a larger fit, so
// the descending reciprocal table is read at an offset, as the
// builder's deeper levels read it.
func TestScanFeatureSegmentOfLargerFit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rows = 300
	inv, rinv := make([]float64, rows+1), make([]float64, rows)
	for k := 1; k <= rows; k++ {
		inv[k] = 1 / float64(k)
		rinv[rows-k] = inv[k]
	}
	col, y := make([]float64, rows), make([]float64, rows)
	for i := range col {
		col[i] = math.Round(rng.NormFloat64() * 20)
		y[i] = col[i]*col[i]/50 + rng.NormFloat64()
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(rows-1)
		order := rng.Perm(rows)[:n]
		sort.Slice(order, func(a, b int) bool { return col[order[a]] < col[order[b]] })
		order32 := make([]int32, n)
		sum, sq := 0.0, 0.0
		for k, i := range order {
			order32[k] = int32(i)
			sum += y[i]
			sq += y[i] * y[i]
		}
		sse := sq - sum*sum/float64(n)
		minLeaf := 1 + rng.Intn(3)
		want := refScanFeature(col, y, order, sum, sq, sse, minLeaf)
		if got := scanFeature(col, y, order32, sum, sq, sse, minLeaf, inv, rinv); got != want {
			t.Fatalf("trial %d (n=%d, minLeaf=%d): scan %+v, reference %+v", trial, n, minLeaf, got, want)
		}
	}
}
