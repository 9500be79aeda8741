package sgbrt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// reuseMatrix draws n rows of 8 features. The target follows feature 0
// strongly and features 2–5 by descending weight; feature 1 is weak, so
// the first split on it comes only after a few trees; feature 6 is
// constant, so nothing ever splits on it; feature 7 is noise.
func reuseMatrix(rng *rand.Rand, n int) ([][]float64, []float64) {
	weights := []float64{10, 0.5, 6, 3, 1.5, 0.8, 0, 0}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, len(weights))
		for f := range row {
			row[f] = rng.Float64()
			y[i] += weights[f] * row[f]
		}
		row[6] = 4
		X[i] = row
		y[i] += 0.2 * rng.NormFloat64()
	}
	return X, y
}

// fitOn fits features of ps with prev and fails the test on an error.
func fitOn(t *testing.T, ps *Presorted, features []int, y []float64, params Params, prev *Ensemble) *Ensemble {
	t.Helper()
	e, err := ps.FitCtx(context.Background(), features, y, params, prev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkReuse fits features with prev and from scratch, and fails
// unless the fit reused want trees and equals the fresh fit.
func checkReuse(t *testing.T, label string, ps *Presorted, features []int, y []float64, params Params, prev *Ensemble, want int) {
	t.Helper()
	got := fitOn(t, ps, features, y, params, prev)
	if got.ReusedTrees() != want {
		t.Errorf("%s: reused %d trees, want %d", label, got.ReusedTrees(), want)
	}
	assertSameEnsemble(t, label, got, fitOn(t, ps, features, y, params, nil))
}

// firstSplit returns the index of e's first tree that splits on
// feature f, or e.NumTrees() when none does.
func firstSplit(e *Ensemble, f int) int {
	for k, t := range e.trees {
		for _, nd := range t.nodes {
			if nd.feature == f {
				return k
			}
		}
	}
	return len(e.trees)
}

// without returns features less the listed ones, in order.
func without(features []int, drop ...int) []int {
	var out []int
	for _, f := range features {
		if !slices.Contains(drop, f) {
			out = append(out, f)
		}
	}
	return out
}

// TestFitReusesProvablyUnchangedTrees checks the reuse rule of
// Presorted.FitCtx: which earlier fits qualify, how many leading trees
// each lends, and that every fit equals a fit from scratch.
func TestFitReusesProvablyUnchangedTrees(t *testing.T) {
	X, y := reuseMatrix(rand.New(rand.NewSource(5)), 240)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	params := Params{Trees: 30, MaxDepth: 3, Seed: 3}
	prev := fitOn(t, ps, all, y, params, nil)
	for k, tr := range prev.trees {
		if !tr.stable {
			t.Fatalf("tree %d is not stable; the expected counts below assume every tree is", k)
		}
	}
	weak := firstSplit(prev, 1)
	if weak == 0 || weak == params.Trees || firstSplit(prev, 6) != params.Trees {
		t.Fatalf("first splits: feature 1 at tree %d, feature 6 at %d; want 1 inside (0, %d) and 6 never",
			weak, firstSplit(prev, 6), params.Trees)
	}

	checkReuse(t, "same columns, other worker count", ps, all, y, withWorkers(params, 3), prev, params.Trees)
	checkReuse(t, "drop the never-split feature", ps, without(all, 6), y, params, prev, params.Trees)
	checkReuse(t, fmt.Sprintf("drop the feature first split at tree %d", weak), ps, without(all, 1), y, params, prev, weak)
	checkReuse(t, "drop feature 0", ps, without(all, 0), y, params, prev, 0)
	// Node sums accumulate in the first column's row order, so even a
	// never-split first column may not change.
	constFirst := []int{6, 0, 1, 2, 3, 4, 5, 7}
	checkReuse(t, "drop a never-split feature 0", ps, constFirst[1:], y, params, fitOn(t, ps, constFirst, y, params, nil), 0)

	y2 := append([]float64(nil), y...)
	y2[7] += 1e-9
	checkReuse(t, "other targets", ps, all, y2, params, prev, 0)
	for name, p := range map[string]Params{
		"other seed":       {Trees: 30, MaxDepth: 3, Seed: 4},
		"other tree count": {Trees: 31, MaxDepth: 3, Seed: 3},
		"other depth":      {Trees: 30, MaxDepth: 4, Seed: 3},
		"other subsample":  {Trees: 30, MaxDepth: 3, Seed: 3, Subsample: 1},
	} {
		checkReuse(t, name, ps, without(all, 6), y, p, prev, 0)
	}
	ps2, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, "other Presorted", ps2, without(all, 6), y, params, prev, 0)
	checkReuse(t, "reordered columns", ps, []int{0, 2, 1, 3, 4, 5, 6, 7}, y, params, prev, 0)
	checkReuse(t, "reordered columns {3, 1, 2}", ps, []int{3, 1, 2}, y, params, prev, 0)
	prefix := fitOn(t, ps, []int{0, 1, 2, 3}, y, params, nil)
	checkReuse(t, "a column absent from prev", ps, []int{0, 1, 4}, y, params, prefix, 0)

	// EIR compacts its column list in place and rewrites its targets
	// nowhere, but a caller may do either: the ensemble keeps copies.
	cols := append([]int(nil), all...)
	inPlace := fitOn(t, ps, cols, y, params, nil)
	next := cols[:0]
	for _, f := range cols {
		if f != 1 {
			next = append(next, f)
		}
	}
	checkReuse(t, "column list rewritten in place", ps, next, y, params, inPlace, weak)
	y3 := append([]float64(nil), y...)
	mutated := fitOn(t, ps, all, y3, params, nil)
	y3[0] += 1
	checkReuse(t, "targets rewritten in place", ps, all, y3, params, mutated, 0)
}

// TestFitReuseChainsAcrossRounds: a reused tree stays reusable, so a
// chain of fits on shrinking column sets, each handed the previous
// fit, keeps lending the same leading trees.
func TestFitReuseChainsAcrossRounds(t *testing.T) {
	X, y := reuseMatrix(rand.New(rand.NewSource(5)), 240)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Trees: 30, MaxDepth: 3, Seed: 3}
	prev := fitOn(t, ps, []int{0, 1, 2, 3, 4, 5, 6, 7}, y, params, nil)
	for _, features := range [][]int{{0, 1, 2, 3, 4, 5, 7}, {0, 1, 2, 3, 4, 5}, {0, 2, 3, 4, 5}} {
		want := prev.NumTrees()
		for k, tr := range prev.trees {
			if !tr.stable {
				t.Fatalf("columns %v: tree %d is not stable; the expected count assumes every tree is", prev.features, k)
			}
		}
		for j, f := range prev.features {
			if !slices.Contains(features, f) {
				want = min(want, firstSplit(prev, j))
			}
		}
		label := fmt.Sprintf("columns %v", features)
		checkReuse(t, label, ps, features, y, params, prev, want)
		prev = fitOn(t, ps, features, y, params, prev)
	}
}

// nearTieChain returns a target and three indicator features over four
// rows whose root candidates form a near-tie chain: the splits on
// features 1, 2 and 3 have gains g, g+0.6e-12 and g+1.2e-12 (g ≈ 1).
// Feature 3 wins, but without feature 1 feature 2 does. Feature 0 is
// constant, so dropping feature 1 keeps the first column.
func nearTieChain() ([][]float64, []float64) {
	// With the four targets summing to zero, isolating row i gains
	// y_i²·4/3.
	u := func(g float64) float64 { return math.Sqrt(g * 3 / 4) }
	y := []float64{u(1), u(1 + 0.6e-12), u(1 + 1.2e-12), 0}
	y[3] = -(y[0] + y[1] + y[2])
	X := [][]float64{
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{0, 0, 0, 0},
	}
	return X, y
}

// recountFailure returns a target and features over four rows where
// the best root split fails the MinLeaf recount: feature 1 separates
// the targets perfectly, but between two adjacent floats, so its
// midpoint threshold rounds up to the larger value and every row goes
// left. The root stays a leaf; without feature 1, feature 2 splits it.
// Feature 0 is constant.
func recountFailure() ([][]float64, []float64) {
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	X := [][]float64{
		{0, a, 0},
		{0, a, 0},
		{0, b, 0},
		{0, b, 1},
	}
	return X, []float64{0, 0, 10, 10}
}

// TestFitReuseSkipsUnstableTrees: dropping a feature that a tree's
// split did not record can still change the tree when the split was
// not stable — a near-tie chain's winner, or a winner that failed the
// MinLeaf recount. Such a tree is never reused.
func TestFitReuseSkipsUnstableTrees(t *testing.T) {
	params := Params{Trees: 1, MaxDepth: 1, Subsample: 1, Seed: 1}
	for _, c := range []struct {
		name            string
		data            func() ([][]float64, []float64)
		all, kept       []int
		prevRoot, fresh int // root split features (-1: leaf)
	}{
		{"near-tie chain", nearTieChain, []int{0, 1, 2, 3}, []int{0, 2, 3}, 3, 1},
		{"recount failure", recountFailure, []int{0, 1, 2}, []int{0, 2}, -1, 1},
	} {
		X, y := c.data()
		ps, err := Presort(X, 1)
		if err != nil {
			t.Fatal(err)
		}
		prev := fitOn(t, ps, c.all, y, params, nil)
		if got := prev.trees[0].nodes[0].feature; got != c.prevRoot {
			t.Fatalf("%s: root splits on feature %d, want %d", c.name, got, c.prevRoot)
		}
		if prev.trees[0].stable {
			t.Fatalf("%s: tree marked stable", c.name)
		}
		fresh := fitOn(t, ps, c.kept, y, params, nil)
		if got := fresh.trees[0].nodes[0].feature; got != c.fresh {
			t.Fatalf("%s: over columns %v the root splits on feature %d, want %d", c.name, c.kept, got, c.fresh)
		}
		checkReuse(t, c.name, ps, c.kept, y, params, prev, 0)
	}
}

// TestPickSplit checks the winner choice and its stability verdict.
func TestPickSplit(t *testing.T) {
	cand := func(gain float64) splitCand { return splitCand{gain: gain, thr: gain, ok: true} }
	cases := []struct {
		name       string
		cands      []splitCand
		feat       int
		stable, ok bool
	}{
		{"clear winner", []splitCand{cand(1), cand(3), {}, cand(2)}, 1, true, true},
		{"near-tie chain", []splitCand{cand(1), cand(1 + 0.6e-12), cand(1 + 1.2e-12)}, 2, false, true},
		{"near-tie chain without its first feature", []splitCand{cand(1 + 0.6e-12), cand(1 + 1.2e-12)}, 0, true, true},
		{"exact tie goes to the earlier feature", []splitCand{cand(2), cand(2)}, 0, true, true},
		{"later near tie loses", []splitCand{cand(2), cand(2 + 0.5e-12)}, 0, true, true},
		{"winner within epsilon of an earlier loser", []splitCand{cand(1), cand(5), cand(5 + 0.4e-12), cand(5 + 1.1e-12)}, 3, false, true},
		{"no candidate", []splitCand{{}, {}}, 0, true, false},
	}
	for _, c := range cases {
		feat, best, stable := pickSplit(c.cands)
		if best.ok != c.ok || (c.ok && feat != c.feat) || stable != c.stable {
			t.Errorf("%s: feature %d (ok %v) stable %v, want feature %d (ok %v) stable %v",
				c.name, feat, best.ok, stable, c.feat, c.ok, c.stable)
		}
	}
}
