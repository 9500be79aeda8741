package sim

import (
	"math"
	"testing"
)

func testGenerator(t *testing.T, name string) *Generator {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, NewCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateDeterministicPerRun(t *testing.T) {
	g := testGenerator(t, "wordcount")
	t1 := g.Generate(1)
	t2 := g.Generate(1)
	if t1.Intervals != t2.Intervals {
		t.Fatalf("same run, different lengths: %d vs %d", t1.Intervals, t2.Intervals)
	}
	s1, _ := t1.Series("ICACHE.MISSES")
	s2, _ := t2.Series("ICACHE.MISSES")
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same run differs at %d", i)
		}
	}
}

func TestGenerateRunsDiffer(t *testing.T) {
	g := testGenerator(t, "wordcount")
	t1 := g.Generate(1)
	t2 := g.Generate(2)
	s1, _ := t1.Series("RS_EVENTS.IQ_FULL_STALL")
	s2, _ := t2.Series("RS_EVENTS.IQ_FULL_STALL")
	n := len(s1)
	if len(s2) < n {
		n = len(s2)
	}
	same := 0
	for i := 0; i < n; i++ {
		if s1[i] == s2[i] {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("runs 1 and 2 share %d/%d samples", same, n)
	}
}

func TestRunLengthNondeterminism(t *testing.T) {
	// §III-A: run lengths vary across runs of the same program.
	g := testGenerator(t, "pagerank")
	lengths := map[int]bool{}
	for run := 0; run < 10; run++ {
		lengths[g.Generate(run).Intervals] = true
	}
	if len(lengths) < 3 {
		t.Errorf("only %d distinct run lengths in 10 runs", len(lengths))
	}
}

func TestIPCPositiveAndBounded(t *testing.T) {
	for _, name := range []string{"wordcount", "WebServing"} {
		g := testGenerator(t, name)
		tr := g.Generate(0)
		for t0, v := range tr.IPC {
			if v <= 0 {
				t.Fatalf("%s IPC[%d] = %v", name, t0, v)
			}
			if v > g.Profile.BaseIPC*1.2 {
				t.Fatalf("%s IPC[%d] = %v above ceiling", name, t0, v)
			}
		}
		if tr.MeanIPC() <= 0.1 || tr.MeanIPC() >= g.Profile.BaseIPC {
			t.Errorf("%s mean IPC = %v", name, tr.MeanIPC())
		}
	}
}

func TestColdStartEventHasStartupBurst(t *testing.T) {
	g := testGenerator(t, "wordcount")
	tr := g.Generate(3)
	s, err := tr.Series("ICACHE.MISSES")
	if err != nil {
		t.Fatal(err)
	}
	head := 0.0
	for _, v := range s[:len(s)/12] {
		head += v
	}
	head /= float64(len(s) / 12)
	tail := 0.0
	for _, v := range s[len(s)/2:] {
		tail += v
	}
	tail /= float64(len(s) - len(s)/2)
	if head < 1.5*tail {
		t.Errorf("cold-start head %v not ≫ steady tail %v", head, tail)
	}
}

func TestInformativeEventCount(t *testing.T) {
	g := testGenerator(t, "kmeans")
	n := g.InformativeEventCount()
	want := len(g.Profile.Weights) + TailEvents
	if n != want {
		t.Errorf("informative events = %d, want %d", n, want)
	}
	// There must be real noise events left over (finding 4).
	if NumEvents-n < 50 {
		t.Errorf("only %d pure-noise events", NumEvents-n)
	}
}

func TestWeightAccessor(t *testing.T) {
	g := testGenerator(t, "wordcount")
	if g.Weight("RS_EVENTS.IQ_FULL_STALL") != 6.1 {
		t.Errorf("ISF weight = %v, want 6.1", g.Weight("RS_EVENTS.IQ_FULL_STALL"))
	}
	if g.Weight("unknown") != 0 {
		t.Error("unknown event weight != 0")
	}
}

func TestImportantEventsDriveIPC(t *testing.T) {
	// Correlation between the top event's saturation and IPC must be
	// clearly negative (it is a penalty).
	g := testGenerator(t, "wordcount")
	tr := g.Generate(5)
	s, _ := tr.Series("RS_EVENTS.IQ_FULL_STALL")
	var cov, varX, varY float64
	mx, my := 0.0, 0.0
	for i := range s {
		mx += s[i]
		my += tr.IPC[i]
	}
	mx /= float64(len(s))
	my /= float64(len(s))
	for i := range s {
		cov += (s[i] - mx) * (tr.IPC[i] - my)
		varX += (s[i] - mx) * (s[i] - mx)
		varY += (tr.IPC[i] - my) * (tr.IPC[i] - my)
	}
	r := cov / math.Sqrt(varX*varY)
	if r > -0.1 {
		t.Errorf("ISF-IPC correlation = %v, want clearly negative", r)
	}
}

func TestTraceAccessors(t *testing.T) {
	g := testGenerator(t, "scan")
	tr := g.Generate(0)
	if _, err := tr.Value("nope", 0); err == nil {
		t.Error("unknown event Value should error")
	}
	if _, err := tr.Value("ICACHE.MISSES", -1); err == nil {
		t.Error("negative interval should error")
	}
	if _, err := tr.Value("ICACHE.MISSES", tr.Intervals); err == nil {
		t.Error("out-of-range interval should error")
	}
	v, err := tr.Value("ICACHE.MISSES", 0)
	if err != nil || v < 0 {
		t.Errorf("Value = %v, %v", v, err)
	}
	if _, err := tr.Series("nope"); err == nil {
		t.Error("unknown event Series should error")
	}
	if tr.Catalogue() == nil {
		t.Error("Catalogue() nil")
	}
}

// TestGenerateEventsMatchesGenerate pins restricted generation against
// full generation: over every profile and a co-located pair, and for
// the served event list, a single event and the whole catalogue, the
// restricted run holds exactly the requested events and those that
// feed IPC — nonzero weight or a side of a designed pair, derived here
// from the profile itself — each bit-identical to Generate's, with the
// same length and IPC; any other event reads as an error.
func TestGenerateEventsMatchesGenerate(t *testing.T) {
	cat := NewCatalogue()
	served, err := cat.Select([]string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"})
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string][]string{
		"served":    served,
		"single":    {"ITLB_MISSES.WALK_COMPLETED"},
		"catalogue": cat.Events(),
	}
	var profiles []Profile
	for _, name := range AllBenchmarkNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	wc, _ := ProfileByName("wordcount")
	so, _ := ProfileByName("sort")
	profiles = append(profiles, Colocate(wc, so))

	for _, p := range profiles {
		g, err := NewGenerator(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		feeds := map[string]bool{}
		for _, ev := range cat.Events() {
			if g.Weight(ev) != 0 {
				feeds[ev] = true
			}
		}
		for _, pair := range p.Interactions {
			for _, ab := range []string{pair.A, pair.B} {
				ev, _ := cat.ByAbbrev(ab)
				feeds[ev.Name] = true
			}
		}
		const run = 3
		full := g.Generate(run)
		for name, events := range lists {
			tr := g.GenerateEvents(run, events)
			want := map[string]bool{}
			for _, ev := range events {
				want[ev] = true
			}
			if tr.Intervals != full.Intervals {
				t.Fatalf("%s/%s: %d intervals, Generate has %d", p.Name, name, tr.Intervals, full.Intervals)
			}
			if !bitsEqual(tr.IPC, full.IPC) {
				t.Errorf("%s/%s: IPC differs from Generate", p.Name, name)
			}
			for _, ev := range cat.Events() {
				got, err := tr.Series(ev)
				if !want[ev] && !feeds[ev] {
					if err == nil {
						t.Errorf("%s/%s: skipped event %s has a series", p.Name, name, ev)
					}
					if _, err := tr.Value(ev, 0); err == nil {
						t.Errorf("%s/%s: skipped event %s has a value", p.Name, name, ev)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s/%s: %v", p.Name, name, err)
					continue
				}
				ref, _ := full.Series(ev)
				if !bitsEqual(got, ref) {
					t.Errorf("%s/%s: series of %s differs from Generate", p.Name, name, ev)
				}
			}
		}
	}
}

// bitsEqual reports whether two series hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
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

func TestNewGeneratorRejectsInvalidProfile(t *testing.T) {
	_, err := NewGenerator(Profile{Name: "bad"}, NewCatalogue())
	if err == nil {
		t.Error("invalid profile should error")
	}
}

func TestColocateHomogeneousKeepsStructure(t *testing.T) {
	dc, _ := ProfileByName("DataCaching")
	co := Colocate(dc, dc)
	if co.Weights[0].Abbrev != dc.Weights[0].Abbrev {
		t.Errorf("homogeneous co-location changed top event: %s", co.Weights[0].Abbrev)
	}
	// Top-10 should be only slightly different: at least 7 shared.
	top := map[string]bool{}
	for _, w := range co.Weights[:10] {
		top[w.Abbrev] = true
	}
	shared := 0
	for _, w := range dc.Weights {
		if top[w.Abbrev] {
			shared++
		}
	}
	if shared < 7 {
		t.Errorf("homogeneous co-location shares only %d/10 top events", shared)
	}
	if err := co.Validate(NewCatalogue()); err != nil {
		t.Errorf("co-located profile invalid: %v", err)
	}
}

func TestColocateHeterogeneousSurfacesL2(t *testing.T) {
	dc, _ := ProfileByName("DataCaching")
	ga, _ := ProfileByName("GraphAnalytics")
	co := Colocate(dc, ga)
	l2 := 0
	for _, w := range co.Weights[:10] {
		if len(w.Abbrev) == 3 && w.Abbrev[:2] == "L2" {
			l2++
		}
	}
	if l2 < 4 {
		t.Errorf("heterogeneous co-location has %d L2 events in top 10, want >= 4", l2)
	}
	// Neither original profile has L2 events in its top list.
	for _, p := range []Profile{dc, ga} {
		for _, w := range p.Weights {
			if w.Abbrev[:2] == "L2" {
				t.Errorf("%s already has L2 event %s", p.Name, w.Abbrev)
			}
		}
	}
	if err := co.Validate(NewCatalogue()); err != nil {
		t.Errorf("co-located profile invalid: %v", err)
	}
	// Generation works on co-located profiles.
	g, err := NewGenerator(co, NewCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Generate(0)
	if tr.MeanIPC() <= 0 {
		t.Error("co-located trace has non-positive IPC")
	}
}

func TestPMUOCOE(t *testing.T) {
	g := testGenerator(t, "join")
	tr := g.Generate(0)
	pmu := DefaultPMU()
	if pmu.Fixed != 3 || pmu.Programmable != 4 {
		t.Fatalf("default PMU = %+v", pmu)
	}
	obs, err := pmu.MeasureOCOE(tr, []string{"ICACHE.MISSES", "IDQ.DSB_UOPS"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := tr.Series("ICACHE.MISSES")
	got := obs["ICACHE.MISSES"]
	if len(got) != len(truth) {
		t.Fatalf("observed length %d != %d", len(got), len(truth))
	}
	// Relative error should be small but nonzero.
	sumRel, diff := 0.0, 0
	for i := range truth {
		if truth[i] > 0 {
			sumRel += math.Abs(got[i]-truth[i]) / truth[i]
		}
		if got[i] != truth[i] {
			diff++
		}
	}
	if avg := sumRel / float64(len(truth)); avg > 0.1 {
		t.Errorf("OCOE relative error = %v, want < 0.1", avg)
	}
	if diff == 0 {
		t.Error("OCOE observation identical to truth (no measurement noise)")
	}
	// Capacity limit.
	if _, err := pmu.MeasureOCOE(tr, []string{"A", "B", "C", "D", "E"}, 1); err == nil {
		t.Error("OCOE beyond counter capacity should error")
	}
	if _, err := pmu.MeasureOCOE(tr, nil, 1); err == nil {
		t.Error("OCOE with no events should error")
	}
	if _, err := pmu.MeasureOCOE(tr, []string{"NOPE"}, 1); err == nil {
		t.Error("OCOE with unknown event should error")
	}
}

func TestPMUGroups(t *testing.T) {
	pmu := DefaultPMU()
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {10, 3}, {16, 4}, {229, 58}}
	for _, c := range cases {
		if got := pmu.Groups(c.n); got != c.want {
			t.Errorf("Groups(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPMUMeasureIPC(t *testing.T) {
	g := testGenerator(t, "bayes")
	tr := g.Generate(0)
	ipc := DefaultPMU().MeasureIPC(tr, 9)
	if len(ipc) != tr.Intervals {
		t.Fatalf("IPC length = %d", len(ipc))
	}
	for i, v := range ipc {
		if v <= 0 {
			t.Fatalf("measured IPC[%d] = %v", i, v)
		}
	}
}
