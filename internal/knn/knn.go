// Package knn implements K-nearest-neighbour regression, used by the
// data cleaner (§III-B-2) to fill in missing event values: a missing
// value is replaced by the average of its k nearest neighbours. The
// paper evaluated k in 3..8 and settled on k = 5.
package knn

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// DefaultK is the neighbour count the paper found accurate enough.
const DefaultK = 5

// Regressor is a KNN regressor over (x, y) pairs with scalar features.
// For time-series imputation the feature is the sample index, so "near"
// means "temporally close".
type Regressor struct {
	k  int
	xs []float64
	ys []float64
}

// NewRegressor returns a KNN regressor with the given k (DefaultK if
// k <= 0).
func NewRegressor(k int) *Regressor {
	if k <= 0 {
		k = DefaultK
	}
	return &Regressor{k: k}
}

// K returns the configured neighbour count.
func (r *Regressor) K() int { return r.k }

// Fit stores the training pairs. It returns an error when the inputs
// are empty or of unequal length.
func (r *Regressor) Fit(xs, ys []float64) error {
	if len(xs) == 0 {
		return errors.New("knn: empty training set")
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("knn: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	r.xs = append([]float64(nil), xs...)
	r.ys = append([]float64(nil), ys...)
	return nil
}

// neighbour is one candidate training point during prediction.
type neighbour struct {
	dist float64
	y    float64
}

// Predict returns the mean y of the k nearest training points to x.
// When fewer than k points exist, all of them are used.
func (r *Regressor) Predict(x float64) (float64, error) {
	if len(r.xs) == 0 {
		return 0, errors.New("knn: predict before fit")
	}
	return r.predictWith(make([]neighbour, len(r.xs)), x), nil
}

// byDist orders neighbours by distance: it is negative exactly when
// a.dist < b.dist. pdqsort consults only that sign, so ties land where
// a less-than sort puts them, which the Analysis digests pin.
func byDist(a, b neighbour) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	return 0
}

// predictWith is Predict over a caller-owned scratch buffer (length
// len(r.xs)), so bulk imputation sorts without re-allocating per point.
func (r *Regressor) predictWith(ns []neighbour, x float64) float64 {
	for i := range r.xs {
		ns[i] = neighbour{dist: math.Abs(r.xs[i] - x), y: r.ys[i]}
	}
	slices.SortFunc(ns, byDist)
	k := r.k
	if k > len(ns) {
		k = len(ns)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += ns[i].y
	}
	return sum / float64(k)
}

// ImputeSeries fills the positions listed in missing (indices into
// values) using KNN regression on sample index, training only on the
// non-missing positions. It returns a new slice; values is not
// modified. k <= 0 selects DefaultK.
func ImputeSeries(values []float64, missing []int, k int) ([]float64, error) {
	if len(values) == 0 {
		return nil, errors.New("knn: impute on empty series")
	}
	isMissing := make(map[int]bool, len(missing))
	for _, i := range missing {
		if i < 0 || i >= len(values) {
			return nil, fmt.Errorf("knn: missing index %d out of range [0,%d)", i, len(values))
		}
		isMissing[i] = true
	}
	var xs, ys []float64
	for i, v := range values {
		if !isMissing[i] {
			xs = append(xs, float64(i))
			ys = append(ys, v)
		}
	}
	out := append([]float64(nil), values...)
	if len(xs) == 0 {
		// Everything is missing; nothing to learn from. Leave as-is.
		return out, errors.New("knn: all values missing")
	}
	reg := NewRegressor(k)
	if err := reg.Fit(xs, ys); err != nil {
		return nil, err
	}
	ns := make([]neighbour, len(xs))
	for _, i := range missing {
		out[i] = reg.predictWith(ns, float64(i))
	}
	return out, nil
}
