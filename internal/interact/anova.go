package interact

import (
	"sort"

	"counterminer/internal/sgbrt"
)

// anovaGridSize is the per-axis resolution of each pair's grid.
const anovaGridSize = 12

// quantileGrid returns k representative values of xs: the
// ((i+0.5)/k)-quantiles, so the grid follows the observed distribution.
func quantileGrid(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		idx := int((float64(i) + 0.5) / float64(k) * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// anovaInteraction evaluates the model on the (gridA × gridB) factorial
// with all other inputs at their means, removes the grand, row, and
// column means, and returns the remaining (interaction) sum of squares:
//
//	SS_int = Σ_ij (y_ij − ȳ_i· − ȳ_·j + ȳ··)²
//
// Zero means the response surface is perfectly additive over the pair.
// y is scratch space for the len(gridA)·len(gridB) cells. The cells
// come from Ensemble.PredictPairGrid, which walks each tree once over
// the grid and returns Predict's values bit for bit.
func anovaInteraction(ens *sgbrt.Ensemble, y, means []float64, ca, cb int, gridA, gridB []float64) (float64, error) {
	ka, kb := len(gridA), len(gridB)
	if err := ens.PredictPairGrid(means, ca, cb, gridA, gridB, y); err != nil {
		return 0, err
	}

	grand := 0.0
	rowMean := make([]float64, ka)
	colMean := make([]float64, kb)
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			rowMean[i] += y[i*kb+j]
			colMean[j] += y[i*kb+j]
			grand += y[i*kb+j]
		}
	}
	for i := range rowMean {
		rowMean[i] /= float64(kb)
	}
	for j := range colMean {
		colMean[j] /= float64(ka)
	}
	grand /= float64(ka * kb)

	ss := 0.0
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			d := y[i*kb+j] - rowMean[i] - colMean[j] + grand
			ss += d * d
		}
	}
	return ss, nil
}
