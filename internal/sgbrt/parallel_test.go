package sgbrt

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestBestSplitTieBreakFeature: two identical feature columns produce
// identical gains for every candidate split; the lowest feature index
// must win regardless of scan order or worker count.
func TestBestSplitTieBreakFeature(t *testing.T) {
	// Feature 1 duplicates feature 0; feature 2 is constant noise-free
	// but uninformative.
	X := [][]float64{
		{0, 0, 7}, {1, 1, 7}, {2, 2, 7}, {3, 3, 7},
	}
	y := []float64{0, 0, 10, 10}
	for _, workers := range []int{1, 8} {
		tree, err := buildTree(X, y, allIdx(4), TreeParams{MaxDepth: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		root := tree.nodes[0]
		if root.feature != 0 {
			t.Errorf("workers=%d: root split feature = %d, want 0 (lowest index wins ties)", workers, root.feature)
		}
		if root.threshold != 1.5 {
			t.Errorf("workers=%d: root threshold = %v, want 1.5", workers, root.threshold)
		}
	}
}

// TestBestSplitTieBreakThreshold: a symmetric target gives two
// thresholds of one feature the same gain; the lower threshold wins.
func TestBestSplitTieBreakThreshold(t *testing.T) {
	// y = [1,0,0,1] over x = [0,1,2,3]: splitting at 0.5 and at 2.5
	// yield the same gain; 1.5 is strictly worse.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 0, 0, 1}
	tree, err := buildTree(X, y, allIdx(4), TreeParams{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.nodes[0]
	if root.feature != 0 || root.threshold != 0.5 {
		t.Errorf("root split = (feature %d, threshold %v), want (0, 0.5): lowest threshold wins ties",
			root.feature, root.threshold)
	}
}

// TestFitParallelMatchesSerial: the fitted ensemble must be
// bit-identical for any worker count — tree structure, predictions,
// and importances.
func TestFitParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, p := 300, 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64() * 50
		}
		X[i] = row
		y[i] = 2*row[0] - row[1] + row[2]*row[3]/25 + rng.NormFloat64()*0.5
	}
	base := Params{Trees: 25, Seed: 9, ColSample: 0.6}

	serial, err := Fit(X, y, withWorkers(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Fit(X, y, withWorkers(base, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par.trees) != len(serial.trees) {
			t.Fatalf("workers=%d: %d trees, serial has %d", workers, len(par.trees), len(serial.trees))
		}
		for k := range par.trees {
			if !reflect.DeepEqual(par.trees[k].nodes, serial.trees[k].nodes) {
				t.Fatalf("workers=%d: tree %d differs from serial", workers, k)
			}
		}
		if !reflect.DeepEqual(par.Importances(), serial.Importances()) {
			t.Errorf("workers=%d: importances differ from serial", workers)
		}
		ps, err1 := serial.PredictAll(X)
		pp, err2 := par.PredictAll(X)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(ps, pp) {
			t.Errorf("workers=%d: predictions differ from serial", workers)
		}
	}
}

func withWorkers(p Params, w int) Params {
	p.Workers = w
	return p
}

// TestBuildTreeOrderedDoesNotMutateOrders guards the presort-once
// contract: every stage of a fit, and every fit of an EIR loop, reads
// the same Presorted columns and orders, so induction must leave them
// intact.
func TestBuildTreeOrderedDoesNotMutateOrders(t *testing.T) {
	X, y := benchMatrix(50, 4)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOrders := make([][]int32, len(ps.orders))
	wantCols := make([][]float64, len(ps.cols))
	for f := range ps.orders {
		wantOrders[f] = append([]int32(nil), ps.orders[f]...)
		wantCols[f] = append([]float64(nil), ps.cols[f]...)
	}
	if _, err := newBuilder(ps.cols, ps.orders, y, TreeParams{MaxDepth: 4}).build(allIdx(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FitCtx(context.Background(), []int{3, 1, 2}, y, Params{Trees: 5, MaxDepth: 4, Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps.orders, wantOrders) || !reflect.DeepEqual(ps.cols, wantCols) {
		t.Error("induction mutated the presorted view")
	}
}
