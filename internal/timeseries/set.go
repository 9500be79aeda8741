package timeseries

import (
	"fmt"
	"sort"
)

// Set is a collection of event series belonging to one program run,
// keyed by event name. The zero value is not usable; construct with
// NewSet.
type Set struct {
	series map[string]*Series
}

// NewSet returns an empty Set.
func NewSet() *Set {
	return &Set{series: make(map[string]*Series)}
}

// Put stores (or replaces) the series for its event name.
func (set *Set) Put(s *Series) {
	set.series[s.Event] = s
}

// Get returns the series for event and whether it exists.
func (set *Set) Get(event string) (*Series, bool) {
	s, ok := set.series[event]
	return s, ok
}

// Lookup returns the series for event, or an error naming the missing
// event. Library code should use Lookup (or Get) rather than MustGet so
// an absent event surfaces as a reportable error instead of a panic.
func (set *Set) Lookup(event string) (*Series, error) {
	s, ok := set.series[event]
	if !ok {
		return nil, fmt.Errorf("timeseries: no series for event %q", event)
	}
	return s, nil
}

// MustGet returns the series for event, panicking if it is absent. It
// is intended for tests only, where the event set is fixed by
// construction; library code must use Lookup or Get.
func (set *Set) MustGet(event string) *Series {
	s, ok := set.series[event]
	if !ok {
		panic(fmt.Sprintf("timeseries: no series for event %q", event))
	}
	return s
}

// Len reports the number of series in the set.
func (set *Set) Len() int { return len(set.series) }

// Events returns the event names in lexical order.
func (set *Set) Events() []string {
	out := make([]string, 0, len(set.series))
	for ev := range set.series {
		out = append(out, ev)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the set.
func (set *Set) Clone() *Set {
	out := NewSet()
	for _, s := range set.series {
		out.Put(s.Clone())
	}
	return out
}

// Matrix returns a rectangular sample matrix X with one row per
// measurement interval and one column per event (in the order given),
// truncated to the shortest *requested* series — series in the set but
// not in events (e.g. quarantined columns) do not shrink the matrix.
// Events missing from the set yield an error.
func (set *Set) Matrix(events []string) ([][]float64, error) {
	cols := make([]*Series, len(events))
	n := -1
	for j, ev := range events {
		s, ok := set.Get(ev)
		if !ok {
			return nil, fmt.Errorf("timeseries: matrix: missing event %q", ev)
		}
		cols[j] = s
		if n < 0 || s.Len() < n {
			n = s.Len()
		}
	}
	if n < 0 {
		n = 0
	}
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, len(events))
	}
	for j, s := range cols {
		for i := 0; i < n; i++ {
			X[i][j] = s.At(i)
		}
	}
	return X, nil
}
