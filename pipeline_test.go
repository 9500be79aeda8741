package counterminer

import (
	"path/filepath"
	"testing"

	"counterminer/internal/store"
)

// fastOptions keeps test pipelines quick: a 24-event subset, no EIR.
func fastOptions(t *testing.T) Options {
	t.Helper()
	p, err := NewPipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := p.Catalogue().Events()[:24]
	return Options{Runs: 2, Trees: 40, Events: events, SkipEIR: true, TopK: 5}
}

func TestPipelineAnalyzeQuick(t *testing.T) {
	p, err := NewPipeline(fastOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmark != "wordcount" || a.Events != 24 {
		t.Errorf("analysis = %+v", a)
	}
	if len(a.Importance) != 24 {
		t.Errorf("importance entries = %d", len(a.Importance))
	}
	total := 0.0
	for _, e := range a.Importance {
		total += e.Importance
		if e.Abbrev == "" {
			t.Errorf("event %s without abbrev", e.Event)
		}
	}
	if total < 99.5 || total > 100.5 {
		t.Errorf("importance total = %v", total)
	}
	if len(a.Interactions) != 10 { // C(5,2)
		t.Errorf("interactions = %d, want 10", len(a.Interactions))
	}
	if a.ModelError <= 0 {
		t.Errorf("model error = %v", a.ModelError)
	}
	if a.MissingFilled == 0 && a.OutliersReplaced == 0 {
		t.Error("cleaner reported no work on MLPX data")
	}
	if len(a.EIRNumEvents) != 1 {
		t.Errorf("SkipEIR produced %d EIR steps", len(a.EIRNumEvents))
	}
}

func TestPipelineTopHelpers(t *testing.T) {
	a := &Analysis{
		Importance: []EventScore{
			{Abbrev: "A", Importance: 9},
			{Abbrev: "B", Importance: 8},
			{Abbrev: "C", Importance: 7},
			{Abbrev: "D", Importance: 1},
		},
		Interactions: []PairScore{{A: "A", B: "B", Importance: 60}},
	}
	if got := a.TopEvents(2); len(got) != 2 || got[0].Abbrev != "A" {
		t.Errorf("TopEvents = %+v", got)
	}
	if got := a.TopEvents(99); len(got) != 4 {
		t.Errorf("TopEvents overflow = %d", len(got))
	}
	if got := a.TopInteractions(5); len(got) != 1 || got[0].Key() != "A-B" {
		t.Errorf("TopInteractions = %+v", got)
	}
	if got := a.SMICount(); got != 3 {
		t.Errorf("SMICount = %d, want 3", got)
	}
	small := &Analysis{Importance: []EventScore{{Abbrev: "A"}}}
	if small.SMICount() != 1 {
		t.Error("SMICount on short ranking")
	}
}

func TestPipelineUnknownBenchmark(t *testing.T) {
	p, err := NewPipeline(fastOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestPipelineBenchmarksList(t *testing.T) {
	p, err := NewPipeline(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Benchmarks(); len(got) != 16 {
		t.Errorf("benchmarks = %d", len(got))
	}
}

func TestPipelineEIRMode(t *testing.T) {
	opts := fastOptions(t)
	opts.SkipEIR = false
	opts.PruneStep = 8
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze("sort")
	if err != nil {
		t.Fatal(err)
	}
	// 24 -> 16 -> 8: three steps.
	if len(a.EIRNumEvents) != 3 {
		t.Errorf("EIR steps = %v", a.EIRNumEvents)
	}
	if a.MAPMEvents > 24 || a.MAPMEvents < 8 {
		t.Errorf("MAPM events = %d", a.MAPMEvents)
	}

	// Fewer events than one default prune: EIR is the single model on
	// all of them.
	opts.Events, opts.PruneStep = opts.Events[:5], 0
	p, err = NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err = p.Analyze("wordcount")
	if err != nil {
		t.Fatalf("EIR on 5 events: %v", err)
	}
	if len(a.EIRNumEvents) != 1 || a.EIRNumEvents[0] != 5 || a.MAPMEvents != 5 {
		t.Errorf("EIR on 5 events: curve %v, MAPM %d events; want one 5-event model", a.EIRNumEvents, a.MAPMEvents)
	}
}

func TestPipelineColocated(t *testing.T) {
	opts := fastOptions(t)
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.AnalyzeColocated("DataCaching", "GraphAnalytics")
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmark != "DataCaching+GraphAnalytics" {
		t.Errorf("benchmark = %s", a.Benchmark)
	}
	if _, err := p.AnalyzeColocated("nope", "DataCaching"); err == nil {
		t.Error("unknown first benchmark should error")
	}
	if _, err := p.AnalyzeColocated("DataCaching", "nope"); err == nil {
		t.Error("unknown second benchmark should error")
	}
}

func TestPipelinePersistence(t *testing.T) {
	opts := fastOptions(t)
	opts.StorePath = filepath.Join(t.TempDir(), "runs.db")
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze("scan"); err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(opts.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != opts.Runs {
		t.Errorf("persisted runs = %d, want %d", db.Len(), opts.Runs)
	}
	metas := db.Select(store.Query{Benchmark: "scan"})
	if len(metas) != opts.Runs {
		t.Errorf("scan runs = %d", len(metas))
	}
	if metas[0].Mode != "MLPX" {
		t.Errorf("mode = %s", metas[0].Mode)
	}
}

func TestPipelineEventValidation(t *testing.T) {
	opts := Options{Events: []string{"only-one"}}
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Analyze("wordcount"); err == nil {
		t.Error("single event should error")
	}
}
