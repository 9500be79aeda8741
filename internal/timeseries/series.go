// Package timeseries provides the time-series type used throughout
// CounterMiner to represent sampled hardware-counter event values.
//
// A Series is an ordered sequence of sampled values for a single
// microarchitecture event of a single program run (eq. (5) of the paper:
// TS_ei = {V_i1, ..., V_in}). Lengths of different series may differ even
// for the same event of the same program because of the non-deterministic
// behaviour of a modern OS; all consumers of this package must therefore
// tolerate ragged lengths.
package timeseries

// Series is one sampled event time series. The zero value is an empty
// series.
type Series struct {
	// Event is the canonical event name, e.g. "ICACHE.MISSES".
	Event string
	// Values holds one sampled value per measurement interval.
	Values []float64
}

// New returns a Series for event with the given values. The slice is
// used directly (not copied); callers that keep mutating the input
// should pass a copy.
func New(event string, values []float64) *Series {
	return &Series{Event: event, Values: values}
}

// Len reports the number of sampled values.
func (s *Series) Len() int { return len(s.Values) }

// At returns the i-th sampled value.
func (s *Series) At(i int) float64 { return s.Values[i] }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	out := &Series{Event: s.Event, Values: make([]float64, len(s.Values))}
	copy(out.Values, s.Values)
	return out
}
