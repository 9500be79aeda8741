package timeseries

import (
	"testing"
)

func TestSetPutGet(t *testing.T) {
	set := NewSet()
	if set.Len() != 0 {
		t.Fatalf("new set Len = %d", set.Len())
	}
	set.Put(New("A", []float64{1, 2}))
	set.Put(New("B", []float64{3}))
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
	a, ok := set.Get("A")
	if !ok || a.Len() != 2 {
		t.Errorf("Get(A) = %v, %v", a, ok)
	}
	if _, ok := set.Get("missing"); ok {
		t.Error("Get(missing) reported ok")
	}
	// Replacement.
	set.Put(New("A", []float64{9, 9, 9}))
	a, _ = set.Get("A")
	if a.Len() != 3 {
		t.Errorf("replaced series Len = %d, want 3", a.Len())
	}
}

func TestSetEventsSorted(t *testing.T) {
	set := NewSet()
	for _, ev := range []string{"Z", "A", "M"} {
		set.Put(New(ev, []float64{1}))
	}
	got := set.Events()
	want := []string{"A", "M", "Z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Events = %v, want %v", got, want)
		}
	}
}

func TestSetMatrix(t *testing.T) {
	set := NewSet()
	set.Put(New("A", []float64{1, 2, 3}))
	set.Put(New("B", []float64{10, 20}))
	X, err := set.Matrix([]string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 2 || len(X[0]) != 2 {
		t.Fatalf("matrix shape = %dx%d, want 2x2", len(X), len(X[0]))
	}
	if X[0][0] != 10 || X[0][1] != 1 || X[1][0] != 20 || X[1][1] != 2 {
		t.Errorf("matrix = %v", X)
	}
	if _, err := set.Matrix([]string{"A", "nope"}); err == nil {
		t.Error("Matrix with missing event should error")
	}
}

func TestSetCloneIsDeep(t *testing.T) {
	set := NewSet()
	set.Put(New("A", []float64{1}))
	c := set.Clone()
	ca := c.MustGet("A")
	ca.Values[0] = 42
	if set.MustGet("A").Values[0] != 1 {
		t.Error("Set.Clone shares series storage")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing event did not panic")
		}
	}()
	NewSet().MustGet("missing")
}

func TestSetLookup(t *testing.T) {
	set := NewSet()
	set.Put(New("A", []float64{1, 2, 3}))

	s, err := set.Lookup("A")
	if err != nil {
		t.Fatal(err)
	}
	if s.Event != "A" || len(s.Values) != 3 {
		t.Errorf("lookup returned %+v", s)
	}

	if _, err := set.Lookup("MISSING"); err == nil {
		t.Fatal("Lookup of an absent event returned no error")
	} else if got := err.Error(); got != `timeseries: no series for event "MISSING"` {
		t.Errorf("error = %q", got)
	}
}

// TestMatrixIgnoresUnrequestedShortSeries pins the property the
// quarantine path depends on: a damaged (short) series left in the set
// but excluded from the requested columns must not shrink the matrix.
func TestMatrixIgnoresUnrequestedShortSeries(t *testing.T) {
	set := NewSet()
	set.Put(New("A", []float64{1, 2, 3, 4, 5}))
	set.Put(New("B", []float64{10, 20, 30, 40, 50}))
	set.Put(New("TRUNCATED", []float64{7, 8})) // quarantined column

	m, err := set.Matrix([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Fatalf("matrix rows = %d, want 5 (short unrequested series must not truncate)", len(m))
	}
	if m[4][0] != 5 || m[4][1] != 50 {
		t.Errorf("last row = %v", m[4])
	}

	// When a short series IS requested, the matrix truncates to it.
	m, err = set.Matrix([]string{"A", "TRUNCATED"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Errorf("matrix rows = %d, want 2", len(m))
	}
}
