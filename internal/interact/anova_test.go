package interact

import (
	"math"
	"math/rand"
	"testing"

	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
)

func TestQuantileGridFollowsDistribution(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	grid := quantileGrid(xs, 10)
	if len(grid) != 10 {
		t.Fatalf("grid size = %d", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not increasing: %v", grid)
		}
	}
	// Midpoints of deciles: ~50, 150, ..., 950.
	if math.Abs(grid[0]-50) > 2 || math.Abs(grid[9]-950) > 2 {
		t.Errorf("grid endpoints = %v, %v", grid[0], grid[9])
	}
}

// fitInteractionModel builds a small 3-feature model where features
// (0,1) interact.
func fitInteractionModel(t *testing.T) (*rank.Model, [][]float64, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	events := []string{"A", "B", "C"}
	n := 700
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2}
		y[i] = 2*X[i][0]*X[i][1] + X[i][2] + rng.NormFloat64()*0.05
	}
	m, err := rank.Fit(X, y, events, rank.Options{
		Params: sgbrt.Params{Trees: 120, MaxDepth: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, X, events
}

// The functional ANOVA is the only basis; the one option left that could
// sway it is the worker count, so every count must agree on the dominant
// pair and on the whole ranking.
func TestAllBasesAgreeOnDominantPair(t *testing.T) {
	m, X, events := fitInteractionModel(t)
	var first []PairScore
	for _, workers := range []int{1, 2, 4} {
		scores, err := RankPairs(m, X, events, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(scores) != 3 {
			t.Fatalf("workers %d: %d pairs, want 3", workers, len(scores))
		}
		if !(scores[0].A == "A" && scores[0].B == "B") {
			t.Errorf("workers %d: top pair = %s, want A-B (%+v)", workers, scores[0].Key(), scores)
		}
		if first == nil {
			first = scores
			continue
		}
		for i := range scores {
			if scores[i] != first[i] {
				t.Errorf("workers %d: pair %d = %+v, want %+v", workers, i, scores[i], first[i])
			}
		}
	}
}

func TestANOVASeparationIsStrong(t *testing.T) {
	m, X, events := fitInteractionModel(t)
	scores, err := RankPairs(m, X, events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The true interacting pair should dwarf the additive ones.
	if scores[0].Importance < 60 {
		t.Errorf("ANOVA dominant pair importance = %v%%, want > 60%%", scores[0].Importance)
	}
}

func TestAnovaInteractionZeroForAdditiveSurface(t *testing.T) {
	// Build a model on a purely additive target; the ANOVA interaction
	// SS of any pair should be small relative to the response range.
	rng := rand.New(rand.NewSource(43))
	events := []string{"A", "B"}
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 3*X[i][0] + 2*X[i][1]
	}
	m, err := rank.Fit(X, y, events, rank.Options{
		Params: sgbrt.Params{Trees: 100, MaxDepth: 3, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := RankPairs(m, X, events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With one pair, importance is trivially 100%; check the raw
	// intensity against the model's output scale instead.
	if scores[0].Intensity > 0.5 {
		t.Errorf("additive surface interaction SS = %v, want small", scores[0].Intensity)
	}
}
