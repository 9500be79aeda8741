package rank

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"counterminer/internal/sgbrt"
)

// synthData builds a data set where the first nSignal features drive y
// with descending strength and the rest are noise.
func synthData(rng *rand.Rand, n, nSignal, nNoise int) ([][]float64, []float64, []string) {
	nf := nSignal + nNoise
	X := make([][]float64, n)
	y := make([]float64, n)
	events := make([]string, nf)
	for j := range events {
		events[j] = "EV_" + string(rune('A'+j%26)) + string(rune('0'+j/26))
	}
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		v := 0.0
		for j := 0; j < nSignal; j++ {
			v += float64(nSignal-j) * row[j]
		}
		y[i] = v + rng.NormFloat64()*0.1
	}
	return X, y, events
}

var fastParams = sgbrt.Params{Trees: 60, Seed: 1}

func TestFitRanksSignalAboveNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y, events := synthData(rng, 600, 3, 12)
	m, err := Fit(X, y, events, Options{Params: fastParams})
	if err != nil {
		t.Fatal(err)
	}
	top := map[string]bool{}
	for _, ei := range m.TopK(3) {
		top[ei.Event] = true
	}
	for _, want := range events[:3] {
		if !top[want] {
			t.Errorf("signal event %s not in top 3: %+v", want, m.TopK(5))
		}
	}
	// Importances normalised to 100.
	total := 0.0
	for _, ei := range m.Ranking {
		total += ei.Importance
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("importance total = %v", total)
	}
	// Ranking descending.
	for i := 1; i < len(m.Ranking); i++ {
		if m.Ranking[i].Importance > m.Ranking[i-1].Importance {
			t.Fatal("ranking not descending")
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, nil, Options{}); err == nil {
		t.Error("empty should error")
	}
	X := [][]float64{{1, 2}, {3, 4}}
	if _, err := Fit(X, []float64{1, 2}, []string{"only-one"}, Options{}); err == nil {
		t.Error("column/name mismatch should error")
	}
	if _, err := Fit(X, []float64{1}, []string{"a", "b"}, Options{}); err == nil {
		t.Error("row/target mismatch should error")
	}
	// Too few samples for a split.
	if _, err := Fit(X, []float64{1, 2}, []string{"a", "b"}, Options{Params: fastParams}); err == nil {
		t.Error("2 samples should be too few")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, []string{"a", "b"}, Options{}); err == nil {
		t.Error("ragged rows should error")
	}
	rng := rand.New(rand.NewSource(6))
	X, y, events := synthData(rng, 100, 2, 2)
	events[3] = events[1]
	if _, err := Fit(X, y, events, Options{Params: fastParams}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate event names: err = %v, want a duplicate-event error", err)
	}
}

// TestNonFiniteTargetRejectedAtEveryRow: a non-finite target is an
// error wherever the train/test split puts its row. The fit itself sees
// only the training rows, so a held-out NaN would otherwise come back
// as a NaN test error.
func TestNonFiniteTargetRejectedAtEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y, events := synthData(rng, 30, 2, 2)
	opts := Options{Params: sgbrt.Params{Trees: 2, Seed: 1}, MinEvents: 2}
	for i := range y {
		saved := y[i]
		y[i] = math.NaN()
		if _, err := Fit(X, y, events, opts); err == nil {
			t.Errorf("Fit with a NaN target at row %d: no error", i)
		}
		if _, err := EIR(X, y, events, opts); err == nil {
			t.Errorf("EIR with a NaN target at row %d: no error", i)
		}
		y[i] = saved
	}
}

func TestFitTestErrorReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y, events := synthData(rng, 800, 4, 8)
	m, err := Fit(X, y, events, Options{Params: fastParams})
	if err != nil {
		t.Fatal(err)
	}
	if m.TestError <= 0 || m.TestError > 50 {
		t.Errorf("test error = %v%%", m.TestError)
	}
}

func TestEIRPrunesNoiseFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y, events := synthData(rng, 600, 4, 26)
	res, err := EIR(X, y, events, Options{Params: fastParams, PruneStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 30 events -> 20 -> 10: three steps.
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(res.Steps))
	}
	if res.Steps[0].NumEvents != 30 || res.Steps[2].NumEvents != 10 {
		t.Errorf("step sizes: %d, %d", res.Steps[0].NumEvents, res.Steps[2].NumEvents)
	}
	// The signal events must survive to the final step.
	final := map[string]bool{}
	for _, ev := range res.Steps[2].Model.Events {
		final[ev] = true
	}
	for _, want := range events[:4] {
		if !final[want] {
			t.Errorf("signal event %s pruned", want)
		}
	}
	// MAPM is the best step.
	for _, s := range res.Steps {
		if s.TestError < res.MAPM().TestError {
			t.Error("MAPM is not the minimum-error step")
		}
	}
	ns, es := res.Curve()
	if len(ns) != 3 || len(es) != 3 {
		t.Errorf("curve lengths %d, %d", len(ns), len(es))
	}
}

func TestEIRValidation(t *testing.T) {
	if _, err := EIR(nil, nil, nil, Options{}); err == nil {
		t.Error("no events should error")
	}
	// A repeated name would survive every prune by name, so the event
	// set never shrank and EIR never ended; it must be rejected instead.
	rng := rand.New(rand.NewSource(7))
	X, y, events := synthData(rng, 200, 2, 20)
	events[15] = events[4]
	if _, err := EIR(X, y, events, Options{Params: fastParams, PruneStep: 5}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate event names: err = %v, want a duplicate-event error", err)
	}
}

// TestEIRSingleStepWhenSmall: with too few events for one prune, EIR
// is the single model on every event — also under the default
// MinEvents, which exceeds the event count.
func TestEIRSingleStepWhenSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y, events := synthData(rng, 300, 2, 6)
	for _, opts := range []Options{
		{Params: fastParams, PruneStep: 10, MinEvents: 5},
		{Params: fastParams},
	} {
		res, err := EIR(X, y, events, opts)
		if err != nil {
			t.Fatalf("MinEvents %d: %v", opts.MinEvents, err)
		}
		if len(res.Steps) != 1 || res.Steps[0].NumEvents != 8 || res.Best != 0 {
			t.Errorf("MinEvents %d: curve %v best %d, want one 8-event step (prune 10)",
				opts.MinEvents, res.Steps, res.Best)
		}
	}
}

func TestTopKClamps(t *testing.T) {
	m := &Model{Ranking: []EventImportance{{Event: "a"}, {Event: "b"}}}
	if got := m.TopK(10); len(got) != 2 {
		t.Errorf("TopK(10) = %d", len(got))
	}
}

func TestSplitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y, events := synthData(rng, 200, 2, 4)
	m1, err := Fit(X, y, events, Options{Params: fastParams, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(X, y, events, Options{Params: fastParams, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m1.TestError != m2.TestError {
		t.Error("same seed, different test error")
	}
}
