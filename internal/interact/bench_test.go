package interact_test

import (
	"fmt"
	"math/rand"
	"testing"

	"counterminer/internal/interact"
	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
)

// benchModel fits a performance model over nEvents synthetic events,
// n rows, so RankPairs does realistic per-pair work.
func benchModel(b *testing.B, nEvents, n int, params sgbrt.Params) (*rank.Model, [][]float64, []string) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	events := make([]string, nEvents)
	for j := range events {
		events[j] = fmt.Sprintf("EV%02d", j)
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nEvents)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		X[i] = row
		y[i] = row[0]*row[1] + 2*row[2] + rng.NormFloat64()*0.1
	}
	m, err := rank.Fit(X, y, events, rank.Options{Params: params})
	if err != nil {
		b.Fatal(err)
	}
	return m, X, events
}

func BenchmarkRankPairs(b *testing.B) {
	m, X, events := benchModel(b, 10, 240, sgbrt.Params{Trees: 30, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interact.RankPairs(m, X, events, interact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankPairsParallel(b *testing.B) {
	m, X, events := benchModel(b, 10, 240, sgbrt.Params{Trees: 30, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interact.RankPairs(m, X, events, interact.Options{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankPairsAnalysisShape ranks pairs at the shape of an
// analysis's Interact stage, on one worker: the top 10 events, a
// 160-tree depth-4 model (twice the 80 trees of Rank), over the ~936
// rows of three collected runs.
func BenchmarkRankPairsAnalysisShape(b *testing.B) {
	m, X, events := benchModel(b, 10, 936, sgbrt.Params{Trees: 160, MaxDepth: 4, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interact.RankPairs(m, X, events, interact.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
