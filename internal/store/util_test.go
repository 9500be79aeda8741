package store

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// writeFile is a test helper writing raw bytes.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// fixtureSeries is a deterministic series of n values.
func fixtureSeries(seed, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(seed*1000+i) / 7
	}
	return v
}

// fixtureSpecial is fixtureSeries(5, n) led by −0, ±Inf, a NaN with a
// payload, the smallest subnormal and the largest float.
func fixtureSpecial(n int) []float64 {
	v := fixtureSeries(5, n)
	copy(v, []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64})
	return v
}

// sameBits reports whether two series hold the same float64 bit
// patterns (NaN payloads and signed zeros included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRecord reports whether got is want as Put stores it, bit for bit.
func sameRecord(got, want Record) bool {
	k := key(want.Meta.Benchmark, want.Meta.RunID, want.Meta.Mode)
	events := make([]string, 0, len(want.Series))
	for ev := range want.Series {
		events = append(events, ev)
	}
	sort.Strings(events)
	intervals := want.Meta.Intervals
	if intervals == 0 {
		intervals = len(want.IPC)
	}
	m := got.Meta
	if key(m.Benchmark, m.RunID, m.Mode) != k || m.SeriesTable != "series/"+k ||
		m.Intervals != intervals || !reflect.DeepEqual(m.Events, events) ||
		len(got.Series) != len(want.Series) || (got.IPC == nil) != (len(want.IPC) == 0) ||
		!sameBits(got.IPC, want.IPC) {
		return false
	}
	for ev, vals := range want.Series {
		g, ok := got.Series[ev]
		if !ok || !sameBits(g, vals) {
			return false
		}
	}
	return true
}

// storeFiles maps every file under a store directory (relative path) to
// its bytes.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = raw
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
