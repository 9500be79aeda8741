package clean

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"counterminer/internal/timeseries"
)

// benchSet mimics an MLPX collection of the given events × intervals:
// correlated series with burst overshoots and missing zeros.
func benchSet(events, n int) *timeseries.Set {
	rng := rand.New(rand.NewSource(42))
	phase := make([]float64, n)
	for t := range phase {
		phase[t] = 1 + 0.5*math.Sin(float64(t)/9)
	}
	set := timeseries.NewSet()
	for e := 0; e < events; e++ {
		scale := 30 + 15*float64(e)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = scale * phase[i] * (1 + 0.05*rng.NormFloat64())
			switch {
			case rng.Float64() < 0.03:
				vs[i] *= 9 * 0.9
			case rng.Float64() < 0.05:
				vs[i] = 0
			}
		}
		set.Put(timeseries.New(string(rune('A'+e/10))+string(rune('A'+e%10))+"_EV", vs))
	}
	return set
}

// BenchmarkBayesClean measures the Bayesian cleaner's full two-phase
// inference over a 36-event set — the highest multiplexing rate the
// experiments sweep.
func BenchmarkBayesClean(b *testing.B) {
	benchBayes(b, benchSet(36, 300), 9)
}

// BenchmarkBayesCleanAnalysisShape is the Bayesian cleaner at the shape
// one run of an analysis hands it: all 229 catalogue events, ~416
// intervals, multiplexed in 58 groups of four counters.
func BenchmarkBayesCleanAnalysisShape(b *testing.B) {
	benchBayes(b, benchSet(229, 416), 58)
}

func benchBayes(b *testing.B, in *timeseries.Set, groups int) {
	c, err := Lookup(BayesCleaner)
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{Benchmark: "bench", Groups: groups}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Clean(context.Background(), in, meta, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdKNNClean is the baseline cleaner over the same set.
func BenchmarkThresholdKNNClean(b *testing.B) {
	in := benchSet(36, 300)
	c, err := Lookup(DefaultCleaner)
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{Benchmark: "bench", Groups: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Clean(context.Background(), in, meta, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
