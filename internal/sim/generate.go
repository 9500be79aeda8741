package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Trace is the ground-truth machine behaviour of one benchmark run: the
// true per-interval value of the catalogue events the run computed
// (every event, unless it came from GenerateEvents) plus the true
// per-interval IPC. Collectors sample a Trace the way perf samples a
// live machine; no downstream component may peek at it directly.
type Trace struct {
	// Profile is the workload that produced the trace.
	Profile Profile
	// Intervals is the number of sampling intervals in this run. It
	// varies across runs of the same profile (OS nondeterminism).
	Intervals int
	// values[e][t] is the true value of catalogue event e in interval t;
	// values[e] is nil when the run did not compute event e.
	values [][]float64
	// IPC[t] is the true instructions-per-cycle in interval t.
	IPC []float64

	cat *Catalogue
}

// Generator produces runs of one benchmark profile. The ground-truth
// response surface (which events matter, and how much) is fixed per
// profile; individual runs differ in noise, phase timing, and length.
type Generator struct {
	Profile Profile
	cat     *Catalogue

	// Per-event ground-truth parameters, indexed by catalogue index.
	weight   []float64 // IPC penalty coefficient
	activity []float64 // typical per-interval magnitude
	freq     []float64 // phase frequency
	phase    []float64 // phase offset
	wobble   []float64 // amplitude of the phase modulation
	// Pairwise interaction terms resolved to catalogue indices.
	pairs []resolvedPair
	// feedsIPC marks the events rawPenalty reads: nonzero weight or a
	// side of a pair. Every run computes them, whatever it measures.
	feedsIPC []bool
	// pMean and pStd normalise the raw penalty into a z-score; they are
	// estimated once from a probe run so that every run of the profile
	// shares the same calibration.
	pMean, pStd float64
}

type resolvedPair struct {
	a, b     int
	strength float64
}

// TailEvents is the number of filler events beyond the designed top
// list that still carry a small amount of ground-truth signal. The
// paper's Fig. 8 finds the most accurate model at ~150 of 229 events;
// this constant is what produces that shape here (10 designed + 140
// tail = 150 informative events, 79 pure noise).
const TailEvents = 140

// NewGenerator builds a generator for the profile over the catalogue.
func NewGenerator(p Profile, cat *Catalogue) (*Generator, error) {
	if err := p.Validate(cat); err != nil {
		return nil, err
	}
	g := &Generator{
		Profile:  p,
		cat:      cat,
		weight:   make([]float64, cat.Len()),
		activity: make([]float64, cat.Len()),
		freq:     make([]float64, cat.Len()),
		phase:    make([]float64, cat.Len()),
		wobble:   make([]float64, cat.Len()),
	}
	// Profile-seeded RNG: ground truth is identical for every run of
	// the same profile.
	rng := rand.New(rand.NewSource(p.Seed))

	// Designed important events.
	designed := make(map[int]bool)
	for _, wt := range p.Weights {
		ev, _ := cat.ByAbbrev(wt.Abbrev)
		i := cat.Index(ev.Name)
		g.weight[i] = wt.Weight
		designed[i] = true
	}
	// Long-tail signal events: a deterministic shuffle of the remaining
	// catalogue; the first TailEvents get exponentially decaying small
	// weights, the rest stay at zero (pure noise events, finding 4 of
	// the paper: "a number of noisy events ... can be definitely
	// removed").
	rest := make([]int, 0, cat.Len())
	for i := 0; i < cat.Len(); i++ {
		if !designed[i] {
			rest = append(rest, i)
		}
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	for k := 0; k < TailEvents && k < len(rest); k++ {
		g.weight[rest[k]] = 1.05 * math.Exp(-float64(k)/70.0)
	}

	// Per-event dynamics.
	for i := 0; i < cat.Len(); i++ {
		ev := cat.At(i)
		g.activity[i] = ev.Scale * (0.6 + 0.8*rng.Float64())
		g.freq[i] = 0.5 + 2.5*rng.Float64()
		g.phase[i] = 2 * math.Pi * rng.Float64()
		g.wobble[i] = 0.25 + 0.45*rng.Float64()
	}

	// Interactions. The designed strengths already encode the paper's
	// suite contrast (multi-tier CloudSuite services interact more
	// strongly, §V-C); the global factor sets the cross-term variance
	// relative to the main effects.
	for _, pair := range p.Interactions {
		ea, _ := cat.ByAbbrev(pair.A)
		eb, _ := cat.ByAbbrev(pair.B)
		// Soft-cap very strong pairs: interaction intensity saturates
		// before it can out-variance the top single-event effects, so
		// a strongly interacting pair (BRB-BMP in most benchmarks) need
		// not be the most important single events — matching §V-B/V-C.
		s := pair.Strength
		if s > 20 {
			s = 20 + (s-20)*0.15
		}
		g.pairs = append(g.pairs, resolvedPair{
			a:        cat.Index(ea.Name),
			b:        cat.Index(eb.Name),
			strength: s * 0.6,
		})
	}

	g.feedsIPC = make([]bool, cat.Len())
	for e, wt := range g.weight {
		g.feedsIPC[e] = wt != 0
	}
	for _, pp := range g.pairs {
		g.feedsIPC[pp.a], g.feedsIPC[pp.b] = true, true
	}

	// Calibrate the penalty-to-IPC mapping from a probe run: the raw
	// penalty (a sum over ~150 event saturations plus cross terms) is
	// turned into a z-score so its fluctuations — not its DC level —
	// drive IPC. Programs spend their baseline stalls inside BaseIPC;
	// what varies across intervals is how far each phase deviates from
	// that baseline, and those swings are tens of percent of IPC, as on
	// real machines.
	g.pStd = 1 // neutral while probing
	probe := g.Generate(-1)
	mean, sq := 0.0, 0.0
	for t := 0; t < probe.Intervals; t++ {
		p := g.rawPenalty(probe, t)
		mean += p
		sq += p * p
	}
	fn := float64(probe.Intervals)
	mean /= fn
	v := sq/fn - mean*mean
	if v < 1e-12 {
		v = 1e-12
	}
	g.pMean = mean
	g.pStd = math.Sqrt(v)
	return g, nil
}

// rawPenalty evaluates the un-normalised penalty surface at interval t
// of a trace.
func (g *Generator) rawPenalty(tr *Trace, t int) float64 {
	penalty := 0.0
	for e := 0; e < g.cat.Len(); e++ {
		if g.weight[e] == 0 {
			continue
		}
		penalty += g.weight[e] * g.saturate(e, tr.values[e][t])
	}
	for _, pp := range g.pairs {
		da := g.saturate(pp.a, tr.values[pp.a][t]) - 0.5
		db := g.saturate(pp.b, tr.values[pp.b][t]) - 0.5
		penalty += pp.strength * 4 * da * db
	}
	return penalty
}

// Catalogue returns the generator's catalogue.
func (g *Generator) Catalogue() *Catalogue { return g.cat }

// Weight returns the ground-truth IPC penalty weight of the named
// event (0 for pure-noise events).
func (g *Generator) Weight(eventName string) float64 {
	i := g.cat.Index(eventName)
	if i < 0 {
		return 0
	}
	return g.weight[i]
}

// InformativeEventCount reports how many events carry nonzero
// ground-truth weight.
func (g *Generator) InformativeEventCount() int {
	n := 0
	for _, wt := range g.weight {
		if wt > 0 {
			n++
		}
	}
	return n
}

// Generate produces run number `run` of the profile. Runs with the same
// number are identical; different numbers differ in noise, burst
// placement, and length (±4%, the OS-nondeterminism of §III-A).
func (g *Generator) Generate(run int) *Trace {
	return g.GenerateScaled(run, nil)
}

// GenerateScaled produces a run with per-event activity scaling, keyed
// by event name. The Spark case study (§V-D) uses this: configuration
// parameters shift the activity of the events they couple to, and the
// IPC responds through the ground-truth surface. A nil or empty map is
// equivalent to Generate.
func (g *Generator) GenerateScaled(run int, scales map[string]float64) *Trace {
	return g.generate(run, scales, nil)
}

// GenerateEvents produces run number `run` computing only the named
// events and those that feed IPC; names outside the catalogue are
// ignored. Every event the trace holds, and its IPC, equals Generate's
// at the same run bit for bit: a skipped event still makes its draws
// from the run's random stream, so every later draw is unchanged. The
// trace's Series and Value report a skipped event as an error.
func (g *Generator) GenerateEvents(run int, events []string) *Trace {
	computed := append([]bool(nil), g.feedsIPC...)
	for _, name := range events {
		if i := g.cat.Index(name); i >= 0 {
			computed[i] = true
		}
	}
	return g.generate(run, nil, computed)
}

// generate produces a run with the given per-event activity scaling,
// computing only the events marked in computed (every event when
// computed is nil). An event left out makes the same random draws as a
// computed one — none of them depends on a computed value — and
// stores no series.
func (g *Generator) generate(run int, scales map[string]float64, computed []bool) *Trace {
	scale := make([]float64, g.cat.Len())
	for i := range scale {
		scale[i] = 1
	}
	for name, s := range scales {
		if i := g.cat.Index(name); i >= 0 && s > 0 {
			scale[i] = s
		}
	}
	rng := rand.New(rand.NewSource(g.Profile.Seed*1_000_003 + int64(run)*7919))

	n := g.Profile.Intervals
	jitter := 1 + (rng.Float64()-0.5)*0.08
	n = int(float64(n) * jitter)
	if n < 16 {
		n = 16
	}

	tr := &Trace{
		Profile:   g.Profile,
		Intervals: n,
		values:    make([][]float64, g.cat.Len()),
		IPC:       make([]float64, n),
		cat:       g.cat,
	}

	// Shared slow phase signal: programs move through phases together
	// (e.g. map vs. shuffle vs. reduce).
	phaseLen := float64(n) / (2 + rng.Float64()*2)
	shared := make([]float64, n)
	sharedOffset := rng.Float64() * 2 * math.Pi
	for t := 0; t < n; t++ {
		shared[t] = math.Sin(2*math.Pi*float64(t)/phaseLen + sharedOffset)
	}

	coldLen := n / 12 // cold-start transient length

	for e := 0; e < g.cat.Len(); e++ {
		ev := g.cat.At(e)
		if computed != nil && !computed[e] {
			// The draws of the loop below, in its order.
			rng.Float64()
			rng.Float64()
			for t := 0; t < n; t++ {
				rng.NormFloat64()
				if ev.Dist == DistGEV && rng.Float64() < 0.03 {
					rng.ExpFloat64()
				}
			}
			continue
		}
		vals := make([]float64, n)
		ar := 0.0 // AR(1) state
		// Per-run level modulation: inputs and OS conditions shift the
		// event's level over the run. A slowly wandering modulation (as
		// opposed to one global factor) makes the DTW distance between
		// two OCOE runs concentrate, which is what lets eq. (4)'s
		// dist_ref act as a stable baseline.
		modPhase := rng.Float64() * 2 * math.Pi
		modFreq := 1 + 2*rng.Float64()
		for t := 0; t < n; t++ {
			runAmp := 1 + 0.04*math.Sin(2*math.Pi*modFreq*float64(t)/float64(n)+modPhase)
			// Base shape: event-specific sinusoid + shared phase + AR noise.
			s := math.Sin(2*math.Pi*g.freq[e]*float64(t)/float64(n) + g.phase[e])
			ar = 0.6*ar + 0.4*rng.NormFloat64()
			level := 1 + g.wobble[e]*(0.3*s+0.05*shared[t]) + 0.8*ar
			if level < 0.05 {
				level = 0.05
			}
			v := g.activity[e] * scale[e] * runAmp * level
			// Heavy-tail bursts for GEV events.
			if ev.Dist == DistGEV && rng.Float64() < 0.03 {
				v *= 1.5 + rng.ExpFloat64()*1.2
			}
			// Cold-start transient (e.g. ICACHE.MISSES).
			if ev.ColdStart && t < coldLen {
				v *= 3.5 * (1 - float64(t)/float64(coldLen)) * 1.4
			}
			vals[t] = v
		}
		tr.values[e] = vals
	}

	// Ground-truth IPC from the response surface. The penalty's pure
	// cross terms are zero-mean in each factor, so an interaction
	// contributes joint (non-additive) variance without acting as a
	// main effect — in the paper, the strongest-interacting pair
	// (BRB-BMP) is not among the most important single events.
	for t := 0; t < n; t++ {
		z := (g.rawPenalty(tr, t) - g.pMean) / g.pStd
		ipc := g.Profile.BaseIPC * (0.62 - 0.10*z)
		ipc *= 1 + 0.012*rng.NormFloat64()
		if ipc < 0.05 {
			ipc = 0.05
		}
		if max := g.Profile.BaseIPC * 1.25; ipc > max {
			ipc = max
		}
		tr.IPC[t] = ipc
	}
	return tr
}

// saturate maps a raw event value into (0, 1) relative to the event's
// typical activity; the nonlinearity is what defeats purely linear
// performance models (§III-C).
func (g *Generator) saturate(e int, v float64) float64 {
	a := g.activity[e]
	return v / (v + a)
}

// Value returns the true value of the named event in interval t.
func (tr *Trace) Value(eventName string, t int) (float64, error) {
	i, err := tr.event(eventName)
	if err != nil {
		return 0, err
	}
	if t < 0 || t >= tr.Intervals {
		return 0, fmt.Errorf("sim: interval %d out of range [0,%d)", t, tr.Intervals)
	}
	return tr.values[i][t], nil
}

// Series returns a copy of the true time series of the named event.
func (tr *Trace) Series(eventName string) ([]float64, error) {
	i, err := tr.event(eventName)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), tr.values[i]...), nil
}

// event resolves an event name to the catalogue index of a series the
// trace holds.
func (tr *Trace) event(eventName string) (int, error) {
	i := tr.cat.Index(eventName)
	if i < 0 {
		return 0, fmt.Errorf("sim: unknown event %q", eventName)
	}
	if tr.values[i] == nil {
		return 0, fmt.Errorf("sim: event %q was not generated in this run", eventName)
	}
	return i, nil
}

// MeanIPC returns the run's average IPC.
func (tr *Trace) MeanIPC() float64 {
	s := 0.0
	for _, v := range tr.IPC {
		s += v
	}
	return s / float64(len(tr.IPC))
}

// Catalogue returns the catalogue the trace was generated against.
func (tr *Trace) Catalogue() *Catalogue { return tr.cat }
