package sgbrt

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	X, y := friedmanData(rng, 300, 2)
	e, err := Fit(X, y, Params{Trees: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTrees() != e.NumTrees() || loaded.NumFeatures() != e.NumFeatures() {
		t.Fatalf("loaded shape: %d trees, %d features", loaded.NumTrees(), loaded.NumFeatures())
	}
	for i := 0; i < 50; i++ {
		p1, err1 := e.Predict(X[i])
		p2, err2 := loaded.Predict(X[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if p1 != p2 {
			t.Fatalf("prediction differs after round trip: %v vs %v", p1, p2)
		}
	}
	// Importances survive too.
	i1, i2 := e.Importances(), loaded.Importances()
	for j := range i1 {
		if math.Abs(i1[j]-i2[j]) > 1e-12 {
			t.Fatalf("importances differ at %d", j)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob")); err == nil {
		t.Error("garbage should error")
	}
}

func TestLoadRejectsBadIndices(t *testing.T) {
	img := wireEnsemble{
		Version:   wireVersion,
		NFeatures: 2,
		Trees: []wireTree{{
			NFeatures: 2,
			Nodes:     []wireNode{{Feature: 0, Left: 5, Right: 6}},
		}},
	}
	var buf bytes.Buffer
	if err := encodeWire(&buf, &img); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("out-of-range children should error")
	}

	img = wireEnsemble{Version: 99, NFeatures: 1}
	buf.Reset()
	if err := encodeWire(&buf, &img); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("bad version should error")
	}
}

// loadWire encodes img and loads it back.
func loadWire(t *testing.T, img wireEnsemble) (*Ensemble, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeWire(&buf, &img); err != nil {
		t.Fatal(err)
	}
	return Load(&buf)
}

// TestLoadRejectsTreeFeatureMismatch: a tree wider than its ensemble
// used to load, and Predict, which checks only the ensemble's width,
// then indexed past the end of the input vector.
func TestLoadRejectsTreeFeatureMismatch(t *testing.T) {
	_, err := loadWire(t, wireEnsemble{
		Version:   wireVersion,
		NFeatures: 2,
		Trees: []wireTree{{
			NFeatures: 6,
			Nodes: []wireNode{
				{Feature: 5, Threshold: 1, Left: 1, Right: 2},
				{Feature: -1, Left: -1, Right: -1},
				{Feature: -1, Left: -1, Right: -1},
			},
		}},
	})
	if err == nil {
		t.Error("a tree whose feature count differs from the model's should not load")
	}
}

// TestLoadRejectsChildCycle: a split node pointing at itself (or at any
// earlier node) used to load, and Predict then looped forever. Save
// writes depth-first preorder, so every child index exceeds its
// parent's.
func TestLoadRejectsChildCycle(t *testing.T) {
	leaf := wireNode{Feature: -1, Left: -1, Right: -1}
	for name, nodes := range map[string][]wireNode{
		"self-loop": {{Feature: 0, Left: 0, Right: 0}},
		"back-edge": {{Feature: 0, Left: 1, Right: 2}, leaf, {Feature: 0, Left: 3, Right: 0}, leaf},
	} {
		_, err := loadWire(t, wireEnsemble{
			Version:   wireVersion,
			NFeatures: 1,
			Trees:     []wireTree{{NFeatures: 1, Nodes: nodes}},
		})
		if err == nil {
			t.Errorf("%s: a child index not after its parent should not load", name)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load. It must return an error or a
// model whose predictions finish without panicking, and a model it
// accepts must survive a Save/Load round trip.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if e.NumFeatures() > 1<<12 {
			return // well-formed but too wide to build an input for
		}
		x := make([]float64, e.NumFeatures())
		p1, err := e.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		e.Importances()
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		p2, err := again.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 && !(math.IsNaN(p1) && math.IsNaN(p2)) {
			t.Fatalf("prediction changed across a round trip: %v vs %v", p1, p2)
		}
	})
}

func TestStagedPredictMatchesFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	X, y := friedmanData(rng, 200, 1)
	e, err := Fit(X, y, Params{Trees: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := e.StagedPredict(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != 25 {
		t.Fatalf("staged length = %d", len(staged))
	}
	final, _ := e.Predict(X[0])
	if math.Abs(staged[len(staged)-1]-final) > 1e-9 {
		t.Errorf("last stage %v != final %v", staged[len(staged)-1], final)
	}
	if _, err := e.StagedPredict([]float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestStagedMAPEDecreasesOnTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	X, y := friedmanData(rng, 400, 1)
	e, err := Fit(X, y, Params{Trees: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := e.StagedMAPE(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Errorf("training error did not decrease: %v -> %v", curve[0], curve[len(curve)-1])
	}
	if _, err := e.StagedMAPE(nil, nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := e.StagedMAPE(X, y[:1]); err == nil {
		t.Error("mismatch should error")
	}
	if _, err := e.StagedMAPE([][]float64{X[0]}, []float64{0}); err == nil {
		t.Error("all-zero targets should error")
	}
}

func TestPartialDependenceMonotoneFeature(t *testing.T) {
	// y = 5·x0: partial dependence on feature 0 must increase.
	rng := rand.New(rand.NewSource(34))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 5*X[i][0] + 0.05*rng.NormFloat64()
	}
	e, err := Fit(X, y, Params{Trees: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid, resp, err := e.PartialDependence(X, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 8 || len(resp) != 8 {
		t.Fatalf("grid/resp lengths: %d/%d", len(grid), len(resp))
	}
	if resp[7] <= resp[0] {
		t.Errorf("PD not increasing: %v ... %v", resp[0], resp[7])
	}
	// Noise feature: flat response.
	_, respNoise, err := e.PartialDependence(X, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	spreadSignal := resp[7] - resp[0]
	spreadNoise := math.Abs(respNoise[7] - respNoise[0])
	if spreadNoise > spreadSignal/4 {
		t.Errorf("noise PD spread %v vs signal %v", spreadNoise, spreadSignal)
	}
	// Validation.
	if _, _, err := e.PartialDependence(nil, 0, 8); err == nil {
		t.Error("empty should error")
	}
	if _, _, err := e.PartialDependence(X, 9, 8); err == nil {
		t.Error("feature out of range should error")
	}
}
