package sgbrt

import (
	"fmt"
	"math/bits"
)

// Pair grids for the interaction ranker: one model evaluated over the
// grid of two features' values with every other input fixed.

// maxPairGrid is the most values PredictPairGrid takes per axis: the
// grid indices that reach a node travel as one 64-bit mask.
const maxPairGrid = 64

// PredictPairGrid evaluates the ensemble on the grid of points that
// equal x except at features a and b: out[i*len(gridB)+j] is the
// prediction at x[a] = gridA[i], x[b] = gridB[j]. Each grid holds at
// most 64 values, and out must hold len(gridA)·len(gridB).
//
// Every cell equals Predict on its point bit for bit, at a fraction of
// the walks (the "recursion" evaluation of partial dependence,
// Friedman 2001, §8.2). Each tree is walked once, with every input but
// a and b fixed: a split on another input sends the whole grid down
// one side, a split on a or b divides the grid indices that reached it
// between its children, and each reachable leaf adds its value to the
// cells that reached it. A tree with no reachable split on a or b is
// one leaf for the whole grid. A cell's point reaches the leaf Predict
// would reach, through the same comparisons, and each cell accumulates
// base, then one stage per tree in tree order, through the same
// addStage Predict uses; so the sums round alike on every platform.
func (e *Ensemble) PredictPairGrid(x []float64, a, b int, gridA, gridB, out []float64) error {
	switch {
	case len(x) != e.nFeatures:
		return fmt.Errorf("sgbrt: pair grid at %d features, model has %d", len(x), e.nFeatures)
	case a < 0 || a >= e.nFeatures || b < 0 || b >= e.nFeatures || a == b:
		return fmt.Errorf("sgbrt: pair grid over features %d and %d of %d", a, b, e.nFeatures)
	case len(gridA) > maxPairGrid || len(gridB) > maxPairGrid:
		return fmt.Errorf("sgbrt: pair grid of %d×%d values exceeds %d per axis", len(gridA), len(gridB), maxPairGrid)
	case len(out) != len(gridA)*len(gridB):
		return fmt.Errorf("sgbrt: pair grid of %d×%d cells into %d", len(gridA), len(gridB), len(out))
	}
	for c := range out {
		out[c] = e.base
	}
	if len(out) == 0 {
		return nil
	}
	g := pairGrid{e: e, x: x, a: a, b: b, gridA: gridA, gridB: gridB, out: out}
	allA := uint64(1)<<len(gridA) - 1
	allB := uint64(1)<<len(gridB) - 1
	for _, t := range e.trees {
		g.walk(t, 0, allA, allB)
	}
	return nil
}

// pairGrid is one PredictPairGrid evaluation.
type pairGrid struct {
	e            *Ensemble
	x            []float64
	a, b         int
	gridA, gridB []float64
	out          []float64
}

// walk descends t from node i with the grid indices in maskA × maskB,
// both non-empty, and adds each reachable leaf's stage to its cells.
func (g *pairGrid) walk(t *Tree, i int, maskA, maskB uint64) {
	for {
		nd := &t.nodes[i]
		switch f := nd.feature; {
		case f < 0:
			g.add(nd.value, maskA, maskB)
			return
		case f == g.a:
			le := atMost(g.gridA, nd.threshold)
			if l := maskA & le; l != 0 {
				g.walk(t, nd.left, l, maskB)
			}
			if maskA &^= le; maskA == 0 {
				return
			}
			i = nd.right
		case f == g.b:
			le := atMost(g.gridB, nd.threshold)
			if l := maskB & le; l != 0 {
				g.walk(t, nd.left, maskA, l)
			}
			if maskB &^= le; maskB == 0 {
				return
			}
			i = nd.right
		case g.x[f] <= nd.threshold:
			i = nd.left
		default:
			i = nd.right
		}
	}
}

// add adds the stage of a leaf to every cell of maskA × maskB.
func (g *pairGrid) add(leaf float64, maskA, maskB uint64) {
	kb := len(g.gridB)
	for ma := maskA; ma != 0; ma &= ma - 1 {
		row := g.out[bits.TrailingZeros64(ma)*kb:]
		for mb := maskB; mb != 0; mb &= mb - 1 {
			j := bits.TrailingZeros64(mb)
			row[j] = g.e.addStage(row[j], leaf)
		}
	}
}

// atMost returns the mask of the grid indices whose value is at most
// thr: the ones a split at thr sends left.
func atMost(grid []float64, thr float64) uint64 {
	var m uint64
	for i, v := range grid {
		if v <= thr {
			m |= 1 << i
		}
	}
	return m
}
