// Package regress implements ordinary least squares linear regression,
// its R², and the eq. (12) residual variance that R² is built from.
// The Spark case study (internal/spark, Fig. 13) scores each
// (parameter, event) pair by the R² of a linear fit of performance on
// the event. The interaction ranker does not use it: internal/interact
// explains why it replaces the paper's pairwise linear fit.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Model is a fitted linear model y = Intercept + Σ Coef[j]·x[j].
type Model struct {
	Intercept float64
	Coef      []float64
}

// Fit computes the OLS solution for X (n rows, p columns) and y (length
// n) by solving the normal equations with partial-pivot Gaussian
// elimination and ridge jitter on singular systems.
func Fit(X [][]float64, y []float64) (*Model, error) {
	n := len(X)
	if n == 0 {
		return nil, errors.New("regress: empty design matrix")
	}
	if len(y) != n {
		return nil, fmt.Errorf("regress: %d rows but %d targets", n, len(y))
	}
	p := len(X[0])
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("regress: ragged row %d (%d vs %d cols)", i, len(row), p)
		}
	}
	if n < p+1 {
		return nil, fmt.Errorf("regress: %d samples cannot identify %d coefficients", n, p+1)
	}

	// Augmented design with intercept column: d = p + 1 unknowns.
	d := p + 1
	// Normal equations A·beta = b with A = Zᵀ Z, b = Zᵀ y.
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	b := make([]float64, d)
	z := make([]float64, d)
	for r := 0; r < n; r++ {
		z[0] = 1
		copy(z[1:], X[r])
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				A[i][j] += z[i] * z[j]
			}
			b[i] += z[i] * y[r]
		}
	}

	beta, err := solve(A, b)
	if err != nil {
		// Singular system (e.g. a constant column): retry with a small
		// ridge penalty, which always succeeds.
		for i := 0; i < d; i++ {
			A[i][i] += 1e-8 * (1 + A[i][i])
		}
		beta, err = solve(A, b)
		if err != nil {
			return nil, err
		}
	}
	return &Model{Intercept: beta[0], Coef: beta[1:]}, nil
}

// solve performs in-place Gaussian elimination with partial pivoting on
// a copy of A and b.
func solve(A [][]float64, b []float64) ([]float64, error) {
	d := len(A)
	M := make([][]float64, d)
	for i := range M {
		M[i] = append(append([]float64(nil), A[i]...), b[i])
	}
	for col := 0; col < d; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[piv][col]) {
				piv = r
			}
		}
		if math.Abs(M[piv][col]) < 1e-12 {
			return nil, errors.New("regress: singular system")
		}
		M[col], M[piv] = M[piv], M[col]
		// Eliminate.
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := M[r][col] / M[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= d; c++ {
				M[r][c] -= f * M[col][c]
			}
		}
	}
	out := make([]float64, d)
	for i := 0; i < d; i++ {
		out[i] = M[i][d] / M[i][i]
	}
	return out, nil
}

// Predict evaluates the model on one feature vector.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("regress: predict with %d features, model has %d", len(x), len(m.Coef))
	}
	y := m.Intercept
	for j, c := range m.Coef {
		y += c * x[j]
	}
	return y, nil
}

// PredictAll evaluates the model on every row of X.
func (m *Model) PredictAll(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	for i, row := range X {
		y, err := m.Predict(row)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}

// ResidualVariance implements eq. (12): v = Σ (p_i − p̄_obs)², the sum of
// squared deviations of the model predictions from the observed
// performance. Zero indicates a perfectly additive (non-interacting)
// relationship.
func ResidualVariance(pred, obs []float64) (float64, error) {
	if len(pred) != len(obs) {
		return 0, fmt.Errorf("regress: %d predictions vs %d observations", len(pred), len(obs))
	}
	if len(pred) == 0 {
		return 0, errors.New("regress: empty residual computation")
	}
	v := 0.0
	for i := range pred {
		d := pred[i] - obs[i]
		v += d * d
	}
	return v, nil
}

// R2 returns the coefficient of determination of pred against obs.
func R2(pred, obs []float64) (float64, error) {
	rss, err := ResidualVariance(pred, obs)
	if err != nil {
		return 0, err
	}
	mean := 0.0
	for _, o := range obs {
		mean += o
	}
	mean /= float64(len(obs))
	tss := 0.0
	for _, o := range obs {
		d := o - mean
		tss += d * d
	}
	if tss == 0 {
		if rss == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - rss/tss, nil
}
