package sgbrt

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Model-analysis utilities: staged prediction for choosing the tree
// count, partial dependence for visualising how one event drives the
// modelled IPC, and pair grids for the interaction ranker.

// StagedPredict returns the model's prediction after each boosting
// stage: out[k] is the prediction using the first k+1 trees. It is the
// standard way to pick the tree count by watching held-out error
// flatten.
func (e *Ensemble) StagedPredict(x []float64) ([]float64, error) {
	if len(x) != e.nFeatures {
		return nil, fmt.Errorf("sgbrt: staged predict with %d features, model has %d", len(x), e.nFeatures)
	}
	out := make([]float64, len(e.trees))
	acc := e.base
	for k, t := range e.trees {
		v, err := t.Predict(x)
		if err != nil {
			return nil, err
		}
		acc += e.params.LearningRate * v
		out[k] = acc
	}
	return out, nil
}

// StagedMAPE returns the held-out MAPE after each boosting stage,
// useful for early-stopping analyses.
func (e *Ensemble) StagedMAPE(X [][]float64, y []float64) ([]float64, error) {
	if len(X) == 0 {
		return nil, errors.New("sgbrt: staged MAPE on empty data")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("sgbrt: %d rows but %d targets", len(X), len(y))
	}
	sums := make([]float64, len(e.trees))
	counts := 0
	for i, row := range X {
		if y[i] == 0 {
			continue
		}
		staged, err := e.StagedPredict(row)
		if err != nil {
			return nil, err
		}
		for k, p := range staged {
			d := (y[i] - p) / y[i]
			if d < 0 {
				d = -d
			}
			sums[k] += d
		}
		counts++
	}
	if counts == 0 {
		return nil, errors.New("sgbrt: staged MAPE undefined (all targets zero)")
	}
	for k := range sums {
		sums[k] = sums[k] / float64(counts) * 100
	}
	return sums, nil
}

// PartialDependence evaluates the model's average response to feature
// j over a grid of its observed values: for each grid point v the
// feature is clamped to v in every row of X and the predictions are
// averaged. It returns the grid and the averaged responses.
func (e *Ensemble) PartialDependence(X [][]float64, j, gridSize int) (grid, response []float64, err error) {
	if len(X) == 0 {
		return nil, nil, errors.New("sgbrt: partial dependence on empty data")
	}
	if j < 0 || j >= e.nFeatures {
		return nil, nil, fmt.Errorf("sgbrt: feature %d out of range [0,%d)", j, e.nFeatures)
	}
	if gridSize < 2 {
		gridSize = 10
	}
	col := make([]float64, len(X))
	for i, row := range X {
		if len(row) != e.nFeatures {
			return nil, nil, fmt.Errorf("sgbrt: row %d has %d features", i, len(row))
		}
		col[i] = row[j]
	}
	sort.Float64s(col)
	grid = make([]float64, gridSize)
	for k := 0; k < gridSize; k++ {
		idx := int((float64(k) + 0.5) / float64(gridSize) * float64(len(col)))
		if idx >= len(col) {
			idx = len(col) - 1
		}
		grid[k] = col[idx]
	}

	// Cap the averaging set for tractability.
	stride := 1
	if len(X) > 256 {
		stride = len(X) / 256
	}
	response = make([]float64, gridSize)
	point := make([]float64, e.nFeatures)
	for k, v := range grid {
		sum, n := 0.0, 0
		for i := 0; i < len(X); i += stride {
			copy(point, X[i])
			point[j] = v
			p, err := e.Predict(point)
			if err != nil {
				return nil, nil, err
			}
			sum += p
			n++
		}
		response[k] = sum / float64(n)
	}
	return grid, response, nil
}

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
