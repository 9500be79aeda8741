package timeseries

import "testing"

func TestCloneIsDeep(t *testing.T) {
	s := New("EV", []float64{1, 2, 3})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares backing storage with original")
	}
	if c.Event != s.Event {
		t.Error("Clone lost event name")
	}
}
