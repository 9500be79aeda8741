package sgbrt

import (
	"math/rand"
	"testing"

	"counterminer/internal/parallel"
)

// benchMatrix builds a synthetic regression problem of n rows and p
// features where the target depends on a handful of the features, so
// tree induction does realistic split work.
func benchMatrix(n, p int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(17))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		X[i] = row
		y[i] = 3*row[0] - 0.5*row[1] + row[2]*row[3]/50 + rng.NormFloat64()
	}
	return X, y
}

// The real shape: one EIR round of a full analysis fits 80 trees of
// depth 4 on 936 training rows (three runs' intervals less the held-out
// quarter) of the 229-event catalogue.
const (
	benchRows     = 936
	benchFeatures = 229
)

var benchParams = Params{Trees: 80, MaxDepth: 4, Seed: 1}

// BenchmarkFit fits at the real shape on one worker.
func BenchmarkFit(b *testing.B) {
	X, y := benchMatrix(benchRows, benchFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, withWorkers(benchParams, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitParallel fits at the real shape on GOMAXPROCS workers.
func BenchmarkFitParallel(b *testing.B) {
	X, y := benchMatrix(benchRows, benchFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, withWorkers(benchParams, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTreeOrdered grows one depth-4 tree over the presorted
// real-shape matrix, buffers reused as in a fit.
func BenchmarkBuildTreeOrdered(b *testing.B) {
	X, y := benchMatrix(benchRows, benchFeatures)
	ps, err := Presort(X, 0)
	if err != nil {
		b.Fatal(err)
	}
	team := parallel.NewTeam(0)
	b.Cleanup(team.Close)
	tb := newBuilder(ps.cols, ps.orders, y, TreeParams{MaxDepth: 4}, team)
	idx := allIdx(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.build(idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictAll(b *testing.B) {
	X, y := benchMatrix(600, 40)
	e, err := Fit(X, y, Params{Trees: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictAll(X); err != nil {
			b.Fatal(err)
		}
	}
}
