package sgbrt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tiedMatrix draws n rows of p features and a target with heavy ties:
// most columns take a handful of distinct values, some are constant,
// and the target often takes few levels, so equal-value runs, equal
// gains and unsplittable nodes are common.
func tiedMatrix(rng *rand.Rand, n, p int) ([][]float64, []float64) {
	levels := make([]int, p)
	for f := range levels {
		levels[f] = []int{1, 2, 3, 5, 8, 1 << 20}[rng.Intn(6)]
	}
	yLevels := []int{2, 4, 1 << 20}[rng.Intn(3)]
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, p)
		for f := range row {
			row[f] = float64(rng.Intn(levels[f])) * 0.5
		}
		X[i] = row
		y[i] = float64(rng.Intn(yLevels))*0.25 + row[0]
		if rng.Intn(4) == 0 {
			y[i] -= row[p-1]
		}
	}
	return X, y
}

// assertSameEnsemble fails unless got and want have equal trees node for
// node and identical Save bytes.
func assertSameEnsemble(t *testing.T, label string, got, want *Ensemble) {
	t.Helper()
	if len(got.trees) != len(want.trees) {
		t.Fatalf("%s: %d trees, reference has %d", label, len(got.trees), len(want.trees))
	}
	for k := range got.trees {
		if !reflect.DeepEqual(got.trees[k].nodes, want.trees[k].nodes) {
			t.Fatalf("%s: tree %d differs from the reference\n got  %+v\n want %+v",
				label, k, got.trees[k].nodes, want.trees[k].nodes)
		}
	}
	var a, b bytes.Buffer
	if err := got.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: Save bytes differ from the reference", label)
	}
}

// TestLevelBuilderMatchesReference is the bit-identity oracle: on random
// tie-heavy inputs, for MinLeaf 1–4, MaxDepth 1–6, with and without
// row subsampling, at 1 and 3 workers, the level-synchronous
// builder must induce exactly the trees of the depth-first reference.
func TestLevelBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		n, p := 4+rng.Intn(120), 1+rng.Intn(8)
		if trial%5 == 0 {
			// Large enough for the level and node fan-outs to engage.
			n, p = 500+rng.Intn(200), 8+rng.Intn(8)
		}
		X, y := tiedMatrix(rng, n, p)
		params := Params{
			Trees:     1 + rng.Intn(6),
			MaxDepth:  1 + rng.Intn(6),
			MinLeaf:   1 + rng.Intn(4),
			Subsample: []float64{1, 0.7}[rng.Intn(2)],
			Seed:      rng.Int63(),
		}
		for _, workers := range []int{1, 3} {
			params.Workers = workers
			label := fmt.Sprintf("trial %d (n=%d p=%d %+v)", trial, n, p, params)
			want, err := refFit(X, y, params)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Fit(X, y, params)
			if err != nil {
				t.Fatal(err)
			}
			assertSameEnsemble(t, label, got, want)
		}
	}
}

// TestLevelBuilderMatchesReferenceOnSubsets checks single trees grown
// on random row subsets, where the sample projection does the work.
func TestLevelBuilderMatchesReferenceOnSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n, p := 6+rng.Intn(200), 1+rng.Intn(6)
		X, y := tiedMatrix(rng, n, p)
		idx := rng.Perm(n)[:2+rng.Intn(n-1)]
		tp := TreeParams{MaxDepth: 1 + rng.Intn(6), MinLeaf: 1 + rng.Intn(4)}
		want, err := refBuildTree(X, y, idx, tp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := buildTree(X, y, idx, tp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("trial %d: tree differs from the reference\n got  %+v\n want %+v", trial, got.nodes, want.nodes)
		}
	}
}

// mirroredTarget returns n targets of magnitude scale whose second half
// mirrors the first, so thresholds placed symmetrically have
// mathematically equal gains that differ only by rounding.
func mirroredTarget(rng *rand.Rand, n int, scale float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		v := scale * (0.1 + rng.Float64())
		y[i], y[n-1-i] = v, v
	}
	return y
}

// TestNearTiedGainsMatchReference covers the division screen where it
// can go wrong: candidates whose gains sit within gainEpsilon of the
// running best, or just beyond it. With targets near 1 (gains of a few
// units) the rounding differences between mirrored thresholds are far
// below gainEpsilon; near 30 (gains of 1e3–1e4) they straddle it; above
// that they exceed it. The screened scan must pick exactly the
// candidate the division-only scan picks, and the trees must match.
func TestNearTiedGainsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	withinEps := false
	for _, scale := range []float64{1e-3, 1, 30, 1e2, 1e4, 3e5, 1e6, 1e9} {
		for trial := 0; trial < 40; trial++ {
			n := 4 + rng.Intn(40)
			y := mirroredTarget(rng, n, scale)
			col := make([]float64, n)
			order := make([]int, n)
			order32 := make([]int32, n)
			for i := range col {
				col[i] = float64(i)
				order[i], order32[i] = i, int32(i)
			}
			sum, sq := 0.0, 0.0
			for _, v := range y {
				sum += v
				sq += v * v
			}
			sse := sq - sum*sum/float64(n)
			inv, rinv := make([]float64, n+1), make([]float64, n)
			for k := 1; k <= n; k++ {
				inv[k] = 1 / float64(k)
				rinv[n-k] = inv[k]
			}
			minLeaf := 1 + rng.Intn(2)
			want := refScanFeature(col, y, order, sum, sq, sse, minLeaf)
			got := scanFeature(col, y, order32, sum, sq, sse, minLeaf, inv, rinv)
			if got != want {
				t.Fatalf("scale %g trial %d: screened scan %+v, division-only scan %+v", scale, trial, got, want)
			}
			withinEps = withinEps || gainsWithin(y, sum, sq, sse)

			// The same target over two identical features and one
			// mirrored one, grown into full trees.
			X := make([][]float64, n)
			for i := range X {
				X[i] = []float64{col[i], col[i], col[n-1-i]}
			}
			tp := TreeParams{MaxDepth: 3, MinLeaf: minLeaf}
			wantTree, err := refBuildTree(X, y, allIdx(n), tp)
			if err != nil {
				t.Fatal(err)
			}
			gotTree, err := buildTree(X, y, allIdx(n), tp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTree.nodes, wantTree.nodes) {
				t.Fatalf("scale %g trial %d: tree differs from the reference", scale, trial)
			}
		}
	}
	if !withinEps {
		t.Fatal("no input produced distinct candidate gains within gainEpsilon; the test lost its edge")
	}
}

// gainsWithin reports whether two candidate splits of targets y, in
// sorted feature order over distinct values, have distinct gains less
// than gainEpsilon apart.
func gainsWithin(y []float64, sum, sq, sse float64) bool {
	n := len(y)
	var gains []float64
	leftSum, leftSq := 0.0, 0.0
	for k := 0; k < n-1; k++ {
		leftSum += y[k]
		leftSq += y[k] * y[k]
		nl, nr := k+1, n-k-1
		rs, rq := sum-leftSum, sq-leftSq
		gains = append(gains, sse-((leftSq-leftSum*leftSum/float64(nl))+(rq-rs*rs/float64(nr))))
	}
	for a := range gains {
		for b := a + 1; b < len(gains); b++ {
			if d := math.Abs(gains[a] - gains[b]); d > 0 && d < gainEpsilon {
				return true
			}
		}
	}
	return false
}
