package rank

import (
	"math/rand"
	"testing"

	"counterminer/internal/sgbrt"
)

// BenchmarkEIR runs the refinement loop at the real shape of a full
// analysis: 1248 intervals (936 training rows once the held-out quarter
// is set aside) of 229 events, 80 trees of depth 4 per model, pruning 10
// events per round — 22 fits — on GOMAXPROCS workers. It reports how
// many trees the rounds carried over from their predecessors instead of
// growing them, a count that is the same in every run.
func BenchmarkEIR(b *testing.B) { benchEIR(b, 0) }

// BenchmarkEIRSerial is BenchmarkEIR on one worker: the split search
// alone, with no fan-out.
func BenchmarkEIRSerial(b *testing.B) { benchEIR(b, 1) }

func benchEIR(b *testing.B, workers int) {
	X, y, events := synthData(rand.New(rand.NewSource(17)), 1248, 6, 223)
	opts := Options{Params: sgbrt.Params{Trees: 80, MaxDepth: 4, Seed: 1, Workers: workers}, Seed: 1}
	reused := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := EIR(X, y, events, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Steps) != 22 {
			b.Fatalf("%d EIR fits, want 22", len(res.Steps))
		}
		reused = 0
		for _, s := range res.Steps {
			reused += s.ReusedTrees
		}
	}
	if reused == 0 {
		b.Fatal("no EIR round reused a tree")
	}
	b.ReportMetric(float64(reused), "reused-trees/op")
}
