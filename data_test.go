package counterminer

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
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

// digestCSV renders a seeded external data set of rows intervals over
// events columns in LoadCSV's layout. IPC falls with the first six
// events, by descending weight, so EIR keeps them while it prunes the
// noise columns.
func digestCSV(events, rows int) string {
	rng := rand.New(rand.NewSource(16))
	var sb strings.Builder
	sb.WriteString("interval")
	for j := 0; j < events; j++ {
		fmt.Fprintf(&sb, ",EV%02d", j)
	}
	sb.WriteString(",ipc\n")
	row := make([]float64, events)
	for i := 0; i < rows; i++ {
		ipc := 2.0
		for j := range row {
			row[j] = 1000 * (1 + 9*rng.Float64())
			if j < 6 {
				ipc -= float64(6-j) * 0.008 * row[j] / 1000
			}
		}
		ipc += 0.05 * rng.NormFloat64()
		sb.WriteString(strconv.Itoa(i))
		for _, v := range row {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(ipc, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// cloneRows deep-copies a data set's rows.
func cloneRows(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// TestAnalyzeDataLeavesDataSetAsGiven checks that AnalyzeData cleans a
// copy: the caller's rows keep their missing value and outlier, and a
// second call on the same data set analyses the same data again.
func TestAnalyzeDataLeavesDataSetAsGiven(t *testing.T) {
	d, err := LoadCSV(strings.NewReader(digestCSV(40, 600)))
	if err != nil {
		t.Fatal(err)
	}
	d.X[100][3] = 0   // missing
	d.X[200][5] = 1e9 // outlier
	before := cloneRows(d.X)
	opts := Options{Trees: 20, SkipEIR: true}
	first, err := AnalyzeData(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.OutliersReplaced < 1 || first.MissingFilled < 1 {
		t.Errorf("first analysis repaired %d outliers and %d missing values, want at least one of each",
			first.OutliersReplaced, first.MissingFilled)
	}
	if !reflect.DeepEqual(d.X, before) {
		t.Fatal("AnalyzeData changed the caller's rows")
	}
	second, err := AnalyzeData(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.Stages, second.Stages = nil, nil
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two analyses of one data set differ:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestExternalEventNamesStayUnabbreviated checks that only the
// simulated cluster's events are abbreviated: external columns named
// like catalogue events keep their names in every score.
func TestExternalEventNamesStayUnabbreviated(t *testing.T) {
	d := syntheticDataSet(400)
	d.Events = []string{"BR_INST_RETIRED.ALL", "BR_MISP_RETIRED.ALL", "NOISE1", "NOISE2"}
	a, err := AnalyzeData(d, Options{Trees: 20, SkipEIR: true})
	if err != nil {
		t.Fatal(err)
	}
	given := map[string]bool{}
	for _, ev := range d.Events {
		given[ev] = true
	}
	for _, e := range a.Importance {
		if e.Abbrev != e.Event {
			t.Errorf("external event %s reported as %s", e.Event, e.Abbrev)
		}
	}
	for _, ps := range a.Interactions {
		if !given[ps.A] || !given[ps.B] {
			t.Errorf("external pair %s does not carry the given names", ps.Key())
		}
	}

	p, err := NewPipeline(Options{Runs: 1, Trees: 20, SkipEIR: true, Events: d.Events[:2]})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := p.Analyze("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"BR_INST_RETIRED.ALL": "BRB", "BR_MISP_RETIRED.ALL": "BMP"}
	for _, e := range sa.Importance {
		if e.Abbrev != want[e.Event] {
			t.Errorf("simulated event %s reported as %s, want %s", e.Event, e.Abbrev, want[e.Event])
		}
	}
	if len(sa.Interactions) != 1 {
		t.Fatalf("simulated interactions = %+v, want one pair", sa.Interactions)
	}
	if k := sa.Interactions[0].Key(); k != "BRB-BMP" && k != "BMP-BRB" {
		t.Errorf("simulated pair %s, want BRB-BMP", k)
	}
}

// TestAnalyzeDataContextCancelLandsInEveryStage sweeps a geometric
// ladder of poll budgets through the external data plan, as
// TestAnalyzeContextCancelLandsInEveryStage does for the pipeline's:
// every aborted call yields a typed *CancelError naming a stage of the
// plan, the ladder reaches several stages, a large enough budget
// completes, and no call, aborted or not, changes the caller's rows.
func TestAnalyzeDataContextCancelLandsInEveryStage(t *testing.T) {
	known := map[string]bool{StageClean: true, StageRank: true, StageInteract: true, StageFingerprint: true}
	d, err := LoadCSV(strings.NewReader(digestCSV(12, 400)))
	if err != nil {
		t.Fatal(err)
	}
	d.X[50][2] = 0    // missing
	d.X[150][4] = 1e9 // outlier
	before := cloneRows(d.X)
	opts := Options{Trees: 20, PruneStep: 3, Workers: 1}
	stagesHit := map[string]bool{}
	completed := false
	for polls := int64(1); polls < 1<<22 && !completed; polls *= 2 {
		a, err := AnalyzeDataContext(newCountdownCtx(polls), d, opts)
		if !reflect.DeepEqual(d.X, before) {
			t.Fatalf("polls=%d: the caller's rows changed", polls)
		}
		if err == nil {
			if a == nil || len(a.Importance) == 0 || len(a.Interactions) == 0 {
				t.Fatalf("polls=%d: completed analysis is empty", polls)
			}
			completed = true
			continue
		}
		var ce *CancelError
		if !errors.Is(err, ErrCanceled) || !errors.As(err, &ce) {
			t.Fatalf("polls=%d: err = %v, want a *CancelError", polls, err)
		}
		if !known[ce.Stage] {
			t.Fatalf("polls=%d: stage %q is not in the data plan (%v)", polls, ce.Stage, err)
		}
		stagesHit[ce.Stage] = true
	}
	if !completed {
		t.Error("no poll budget let the analysis complete")
	}
	if len(stagesHit) < 3 {
		t.Errorf("cancellation only ever landed in %v; expected the ladder to hit at least three stages", stagesHit)
	}
}

// FuzzLoadCSV feeds arbitrary bytes to LoadCSV. No input may panic; a
// data set it accepts must pass Validate, and encoding it again, each
// value in its shortest form, must load back to the same bits.
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("LoadCSV returned a data set Validate rejects: %v", err)
		}
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		rec := append(append([]string{"interval"}, d.Events...), "ipc")
		w.Write(rec)
		for i, row := range d.X {
			rec[0] = strconv.Itoa(i)
			for j, v := range row {
				rec[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			rec[len(rec)-1] = strconv.FormatFloat(d.Y[i], 'g', -1, 64)
			w.Write(rec)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCSV(&buf)
		if err != nil {
			t.Fatalf("loading the re-encoded data set: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(again.Events, d.Events) {
			t.Fatalf("events %q came back as %q", d.Events, again.Events)
		}
		if got, want := floatBits(again.X, again.Y), floatBits(d.X, d.Y); got != want {
			t.Fatalf("values changed across a round trip:\n%s\nvs\n%s", want, got)
		}
	})
}

// floatBits renders every value's bit pattern, row by row.
func floatBits(X [][]float64, Y []float64) string {
	var sb strings.Builder
	for i, row := range X {
		for _, v := range row {
			fmt.Fprintf(&sb, "%016x ", math.Float64bits(v))
		}
		fmt.Fprintf(&sb, "| %016x\n", math.Float64bits(Y[i]))
	}
	return sb.String()
}
