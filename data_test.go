package counterminer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"counterminer/internal/clean"
)

// syntheticDataSet builds external-style data where the first two
// events drive performance.
func syntheticDataSet(n int) *DataSet {
	rng := rand.New(rand.NewSource(81))
	d := &DataSet{Events: []string{"STALLS", "MISSES", "NOISE1", "NOISE2"}}
	for i := 0; i < n; i++ {
		row := []float64{
			50 + 20*rng.NormFloat64(),
			30 + 10*rng.NormFloat64(),
			rng.Float64() * 100,
			rng.Float64() * 100,
		}
		y := 2.0 - 0.01*row[0] - 0.008*row[1] + 0.02*rng.NormFloat64()
		if y < 0.05 {
			y = 0.05
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

func TestDataSetValidate(t *testing.T) {
	if err := (&DataSet{}).Validate(); err == nil {
		t.Error("empty events should fail")
	}
	if err := (&DataSet{Events: []string{"A"}}).Validate(); err == nil {
		t.Error("no rows should fail")
	}
	d := &DataSet{Events: []string{"A"}, X: [][]float64{{1}}, Y: []float64{1, 2}}
	if err := d.Validate(); err == nil {
		t.Error("row/target mismatch should fail")
	}
	d = &DataSet{Events: []string{"A", "B"}, X: [][]float64{{1}}, Y: []float64{1}}
	if err := d.Validate(); err == nil {
		t.Error("ragged row should fail")
	}
	d = &DataSet{Events: []string{"A", "B", "A"}, X: [][]float64{{1, 2, 3}}, Y: []float64{1}}
	if err := d.Validate(); err == nil {
		t.Error("duplicate event name should fail")
	}
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d = syntheticDataSet(10)
		d.Y[7] = y
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "row 7") {
			t.Errorf("performance value %v: err = %v, want an error naming row 7", y, err)
		}
	}
	if err := syntheticDataSet(10).Validate(); err != nil {
		t.Errorf("valid data set rejected: %v", err)
	}
}

func TestDataSetClean(t *testing.T) {
	d := syntheticDataSet(200)
	d.X[10][0] = 0     // missing
	d.X[20][1] = 99999 // outlier
	out, miss, err := d.Clean(clean.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if miss < 1 {
		t.Errorf("missing = %d", miss)
	}
	if out < 1 {
		t.Errorf("outliers = %d", out)
	}
	if d.X[10][0] == 0 {
		t.Error("missing value not filled in place")
	}
	if d.X[20][1] == 99999 {
		t.Error("outlier not replaced in place")
	}
}

func TestAnalyzeDataRanksDrivers(t *testing.T) {
	d := syntheticDataSet(600)
	a, err := AnalyzeData(d, Options{Trees: 60, SkipEIR: true, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmark != "external" || a.Events != 4 {
		t.Errorf("analysis = %+v", a)
	}
	top2 := map[string]bool{}
	for _, e := range a.TopEvents(2) {
		top2[e.Event] = true
	}
	if !top2["STALLS"] || !top2["MISSES"] {
		t.Errorf("top events = %+v, want STALLS and MISSES", a.TopEvents(4))
	}
	if len(a.Interactions) != 6 { // C(4,2)
		t.Errorf("interactions = %d", len(a.Interactions))
	}
}

func TestAnalyzeDataWithEIR(t *testing.T) {
	d := syntheticDataSet(400)
	a, err := AnalyzeData(d, Options{Trees: 40, PruneStep: 2, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 4 -> 2 events: two EIR steps.
	if len(a.EIRNumEvents) != 2 {
		t.Errorf("EIR steps = %v", a.EIRNumEvents)
	}
	// Fewer events than the default prune of 10: one model on all four.
	a, err = AnalyzeData(d, Options{Trees: 40, TopK: 2})
	if err != nil {
		t.Fatalf("EIR on 4 events: %v", err)
	}
	if len(a.EIRNumEvents) != 1 || a.EIRNumEvents[0] != 4 {
		t.Errorf("EIR on 4 events: curve %v, want [4]", a.EIRNumEvents)
	}
	if _, err := AnalyzeData(&DataSet{}, Options{}); err == nil {
		t.Error("invalid data should error")
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	csv := `interval,EV_A,EV_B,ipc
0,1.5,2.5,1.1
1,1.6,2.4,1.2
2,1.7,2.3,1.0
`
	d, err := LoadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 2 || d.Events[0] != "EV_A" {
		t.Errorf("events = %v", d.Events)
	}
	if len(d.X) != 3 || d.X[1][1] != 2.4 || d.Y[2] != 1.0 {
		t.Errorf("data = %+v", d)
	}
}

func TestLoadCSVValidation(t *testing.T) {
	cases := []struct{ name, csv string }{
		{"empty", ""},
		{"too-few-cols", "interval,ipc\n0,1\n"},
		{"bad-first-col", "time,EV,ipc\n0,1,1\n"},
		{"bad-last-col", "interval,EV,cycles\n0,1,1\n"},
		{"non-monotone", "interval,EV,ipc\n1,1,1\n1,2,1\n"},
		{"bad-value", "interval,EV,ipc\n0,abc,1\n"},
		{"bad-ipc", "interval,EV,ipc\n0,1,xyz\n"},
		{"bad-interval", "interval,EV,ipc\nzero,1,1\n"},
		{"no-rows", "interval,EV,ipc\n"},
		{"duplicate-event", "interval,EV,EV,ipc\n0,1,2,1\n"},
		{"nan-ipc", "interval,EV,ipc\n0,1,1\n1,2,NaN\n"},
	}
	for _, c := range cases {
		if _, err := LoadCSV(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
