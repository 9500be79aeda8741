package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	counterminer "counterminer"
)

// op is one measured operation: an analysis (library workloads) or a
// synchronous /analyze request (serve-mixed).
type op struct {
	start   time.Duration // offset from the opening of the measured window
	latency time.Duration // as the caller saw it
	// call is the part of latency spent inside the serving call: the
	// server-reported request time, or the AnalyzeContext wall time.
	call time.Duration
	// stages are the pipeline stage timings of an op that executed the
	// pipeline itself; nil for cache hits and singleflight followers.
	stages []counterminer.StageTiming
	// fits is the number of SGBRT model fits in the Rank stage.
	fits int
	// note tags the op in the trace ("cached", "shared", benchmark, ...).
	note string
}

func (o op) stageSum() time.Duration {
	var s time.Duration
	for _, st := range o.stages {
		s += st.Duration
	}
	return s
}

// outcome is everything a workload measured in one run.
type outcome struct {
	ops               []op
	attempted, failed int
	elapsed           time.Duration // length of the measured window
	setup             []time.Duration
	// counts are per-layer counts read from the daemon's /metrics;
	// absent counts report 0 (the library workloads have no daemon).
	counts   map[string]float64
	problems []string
}

func (o *outcome) problem(format string, args ...any) {
	// A run that goes badly wrong would otherwise repeat one message
	// hundreds of times.
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEndMetrics are what a user sees: per-op latency (median and
// p95), completed ops per second, and set-up time.
func (o *outcome) endToEndMetrics() map[string]metric {
	lat := make([]float64, len(o.ops))
	for i, p := range o.ops {
		lat[i] = ms(p.latency)
	}
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	return map[string]metric{
		"latency_ms": {median(lat), "ms"},
		"p95_ms":     {percentile(lat, 0.95), "ms"},
		"ops_per_s":  {float64(len(o.ops)) / o.elapsed.Seconds(), "1/s"},
		"setup_s":    {median(setup), "s"},
	}
}

// layerMetrics break the ops that executed the pipeline down by layer:
// the median time of each stage, of one model fit inside Rank, of the
// caller's side of the op (latency - call: HTTP and JSON for the daemon,
// pipeline construction for the library), and of the serving call
// outside the stages (call - stages: admission, queue wait and dispatch
// in the daemon, the call overhead in the library).
func (o *outcome) layerMetrics() map[string]metric {
	var exec []op
	for _, p := range o.ops {
		if p.stages != nil {
			exec = append(exec, p)
		}
	}
	col := func(f func(op) float64) float64 {
		v := make([]float64, len(exec))
		for i, p := range exec {
			v[i] = f(p)
		}
		return median(v)
	}
	m := map[string]metric{
		"analyses":     {float64(len(exec)), "count"},
		"eir_fits":     {col(func(p op) float64 { return float64(p.fits) }), "count"},
		"client_ms":    {col(func(p op) float64 { return ms(p.latency - p.call) }), "ms"},
		"admission_ms": {col(func(p op) float64 { return ms(p.call - p.stageSum()) }), "ms"},
		"rank_fit_ms": {col(func(p op) float64 {
			return ms(stageTime(p, counterminer.StageRank)) / float64(max(p.fits, 1))
		}), "ms"},
	}
	for _, st := range counterminer.StageNames() {
		m[strings.ToLower(st)+"_ms"] = metric{col(func(p op) float64 { return ms(stageTime(p, st)) }), "ms"}
	}
	for _, c := range layerCounts {
		m[c] = metric{o.counts[c], "count"}
	}
	return m
}

// layerCounts are the daemon's per-layer counters, as /metrics deltas
// over the run.
var layerCounts = []string{"cache_hits", "singleflight_shared", "memo_hits", "stream_events"}

func stageTime(p op, stage string) time.Duration {
	for _, st := range p.stages {
		if st.Stage == stage {
			return st.Duration
		}
	}
	return 0
}

// writeTrace writes one JSON line per op.
func (o *outcome) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range o.ops {
		rec := map[string]any{
			"start_ms":   ms(p.start),
			"latency_ms": ms(p.latency),
			"call_ms":    ms(p.call),
			"note":       p.note,
		}
		if p.stages != nil {
			stages := make(map[string]float64, len(p.stages))
			for _, st := range p.stages {
				stages[st.Stage] = ms(st.Duration)
			}
			rec["stages_ms"] = stages
			rec["fits"] = p.fits
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of v, or NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of v, or NaN when v is
// empty.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// digest is the content hash of an analysis result, stage timings
// excluded: two analyses of the same inputs must digest identically
// whichever worker count, node, cache or stream produced them.
func digest(a *counterminer.Analysis) string {
	c := *a
	c.Stages = nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkAnalysis verifies the invariants every correct analysis holds:
// the event count asked for, an EIR curve that starts at the surviving
// events and shrinks, an MAPM that is the curve's most accurate point,
// importances and interaction intensities that are finite, sorted and
// sum to 100%, a finite fingerprint, nothing lost to run failures or the
// store, and the full stage plan. singleFit says EIR was skipped.
func checkAnalysis(a *counterminer.Analysis, events int, singleFit bool) error {
	switch {
	case a == nil:
		return fmt.Errorf("no analysis")
	case a.Events != events:
		return fmt.Errorf("%d events analysed, want %d", a.Events, events)
	case len(a.EIRNumEvents) == 0 || len(a.EIRNumEvents) != len(a.EIRErrors):
		return fmt.Errorf("malformed EIR curve (%d sizes, %d errors)", len(a.EIRNumEvents), len(a.EIRErrors))
	case singleFit && len(a.EIRNumEvents) != 1:
		return fmt.Errorf("%d model fits with EIR skipped", len(a.EIRNumEvents))
	case !singleFit && len(a.EIRNumEvents) < 2:
		return fmt.Errorf("EIR ran only %d fit", len(a.EIRNumEvents))
	case a.EIRNumEvents[0] != events-len(a.Degradation.EventsQuarantined):
		return fmt.Errorf("EIR starts at %d events, want %d", a.EIRNumEvents[0], events-len(a.Degradation.EventsQuarantined))
	case len(a.Degradation.RunsFailed) > 0 || len(a.Degradation.StoreErrors) > 0:
		return fmt.Errorf("degraded: %d runs failed, %d store errors", len(a.Degradation.RunsFailed), len(a.Degradation.StoreErrors))
	case len(a.Importance) != a.MAPMEvents || a.MAPMEvents < 2:
		return fmt.Errorf("%d importances for a %d-event MAPM", len(a.Importance), a.MAPMEvents)
	}
	best := -1
	for i, n := range a.EIRNumEvents {
		if i > 0 && n >= a.EIRNumEvents[i-1] {
			return fmt.Errorf("EIR curve does not shrink at step %d", i)
		}
		if math.IsNaN(a.EIRErrors[i]) || math.IsInf(a.EIRErrors[i], 0) || a.EIRErrors[i] < a.ModelError {
			return fmt.Errorf("EIR step %d error %v below the MAPM's %v", i, a.EIRErrors[i], a.ModelError)
		}
		if n == a.MAPMEvents && a.EIRErrors[i] == a.ModelError {
			best = i
		}
	}
	if best < 0 {
		return fmt.Errorf("MAPM (%d events, error %v) is not on the EIR curve", a.MAPMEvents, a.ModelError)
	}
	imp := make([]float64, len(a.Importance))
	for i, e := range a.Importance {
		imp[i] = e.Importance
	}
	if err := checkShares("importance", imp); err != nil {
		return err
	}
	if len(a.Interactions) == 0 {
		return fmt.Errorf("no interactions ranked")
	}
	inter := make([]float64, len(a.Interactions))
	for i, p := range a.Interactions {
		inter[i] = p.Importance
	}
	if err := checkShares("interaction", inter); err != nil {
		return err
	}
	if len(a.Fingerprint) == 0 {
		return fmt.Errorf("no fingerprint")
	}
	for _, v := range a.Fingerprint {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite fingerprint")
		}
	}
	plan := counterminer.StageNames()
	if len(a.Stages) != len(plan) {
		return fmt.Errorf("%d stages timed, want %d", len(a.Stages), len(plan))
	}
	for i, st := range a.Stages {
		if st.Stage != plan[i] {
			return fmt.Errorf("stage %d is %s, want %s", i, st.Stage, plan[i])
		}
	}
	return nil
}

// checkShares verifies percentages that are finite, non-negative,
// non-increasing and sum to 100.
func checkShares(what string, v []float64) error {
	sum := 0.0
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("%s %d is %v", what, i, x)
		}
		if i > 0 && x > v[i-1] {
			return fmt.Errorf("%s ranking not sorted at %d", what, i)
		}
		sum += x
	}
	if math.Abs(sum-100) > 1e-6 {
		return fmt.Errorf("%s shares sum to %v%%", what, sum)
	}
	return nil
}
