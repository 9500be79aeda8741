package counterminer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/fault"
	"counterminer/internal/fingerprint"
	"counterminer/internal/interact"
	"counterminer/internal/parallel"
	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/internal/timeseries"
)

// Options configures a Pipeline. The zero value selects paper-faithful
// defaults sized for interactive use.
type Options struct {
	// Runs is how many benchmark executions feed each analysis
	// (default 3, at most MaxRuns). More runs mean more training
	// examples.
	Runs int
	// Events restricts the measured event set; nil measures the full
	// catalogue (229 events).
	Events []string
	// Trees is the SGBRT ensemble size (default 80).
	Trees int
	// PruneStep is the EIR pruning step (default 10).
	PruneStep int
	// TopK is how many important events an Analysis reports in detail
	// and feeds to the interaction ranker (default 10).
	TopK int
	// SkipEIR fits a single model on all events instead of running the
	// refinement loop (faster, less accurate importance).
	SkipEIR bool
	// CleanOptions configures the data cleaner.
	CleanOptions clean.Options
	// StorePath, when non-empty, persists every collected run to a
	// two-level store at that path.
	StorePath string
	// Seed decorrelates the pipeline's randomness (default 1).
	Seed int64
	// Workers bounds the analysis-stage parallelism (cleaning, SGBRT
	// induction, interaction ranking); <= 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
	// Retry configures the per-run Collect retry loop; the zero value
	// selects 3 attempts with no backoff delay.
	Retry RetryPolicy
	// MinRuns is the run quorum: the analysis proceeds when at least
	// MinRuns of Runs collections succeed (after retries) and returns a
	// QuorumError otherwise. <= 0 requires every run to succeed.
	MinRuns int
	// Source overrides where benchmark runs come from; nil collects
	// from the built-in simulated cluster. Wrap a collector with
	// fault.NewSource to inject failures.
	Source fault.RunSource
	// Sink overrides where collected runs are persisted; nil persists
	// to StorePath (if set). Wrap a store with fault.NewSink to inject
	// write failures.
	Sink fault.RunSink
}

// RetryPolicy configures the capped deterministic backoff around run
// collection.
type RetryPolicy struct {
	// Attempts is the maximum Collect attempts per run (default 3).
	Attempts int
	// BaseDelay is the backoff before the first retry; retry k waits
	// BaseDelay << (k-1), capped at MaxDelay. Zero retries immediately,
	// which keeps tests deterministic and fast.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 32 * BaseDelay).
	MaxDelay time.Duration
	// Sleep overrides the backoff wait; tests inject a recorder or
	// no-op. When nil the wait is a context-aware timer that aborts as
	// soon as the analysis context is canceled; an injected Sleep runs
	// to completion and the context is checked after it returns.
	Sleep func(time.Duration)
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.Attempts <= 0 {
		r.Attempts = 3
	}
	if r.MaxDelay <= 0 {
		if r.BaseDelay > math.MaxInt64/32 {
			r.MaxDelay = math.MaxInt64
		} else {
			r.MaxDelay = 32 * r.BaseDelay
		}
	}
	return r
}

// delay returns the capped exponential backoff before retry k (1-based).
func (r RetryPolicy) delay(k int) time.Duration {
	if r.BaseDelay <= 0 {
		return 0
	}
	d := r.BaseDelay
	for i := 1; i < k; i++ {
		if d >= r.MaxDelay {
			return r.MaxDelay
		}
		// Doubling past the int64 midpoint would overflow to a negative
		// duration; the true (unbounded) value already exceeds any
		// representable cap, so the cap is the answer.
		if d > math.MaxInt64/2 {
			return r.MaxDelay
		}
		d *= 2
	}
	if d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// sleep waits d or until ctx is done, whichever comes first, and
// returns ctx.Err() when the context is done — including when an
// injected Sleep consumed the full wait first.
func (r RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if d > 0 {
		if r.Sleep != nil {
			r.Sleep(d)
		} else {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return ctx.Err()
}

// MaxRuns is the most runs one analysis may collect. Run r of an
// analysis has id Seed*100 + r, so more runs would let seeds s and s+1
// share runs.
const MaxRuns = 100

// Validate reports the first option NewPipeline would reject, as a
// typed error: invalid clean options (clean.ErrBadOptions,
// clean.ErrUnknownCleaner), more than MaxRuns runs, or a Seed whose run
// ids Seed*100 + 1 .. Seed*100 + Runs overflow int (ErrBadOptions).
// Unset fields are checked at the values NewPipeline resolves them to.
func (o Options) Validate() error {
	// Check the clean options before defaulting: WithDefaults raises
	// out-of-range N/K onto the paper defaults, and a typo should be
	// an error, not a silent fallback.
	if err := o.CleanOptions.Validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	if o.Runs > MaxRuns {
		return &OptionError{Field: "Runs", Reason: fmt.Sprintf("at most %d runs, got %d", MaxRuns, o.Runs)}
	}
	// Seed*100 + 1 >= MinInt and Seed*100 + Runs <= MaxInt, without
	// overflowing on the way.
	if lo, hi := int64(math.MinInt)/100, (int64(math.MaxInt)-int64(o.Runs))/100; o.Seed < lo || o.Seed > hi {
		return &OptionError{Field: "Seed", Reason: fmt.Sprintf("with %d runs the seed must lie in [%d, %d], got %d", o.Runs, lo, hi, o.Seed)}
	}
	return nil
}

// WithDefaults returns a copy of o with every unset field resolved to
// the value NewPipeline would resolve it to. Serving layers use it to
// canonicalize requests before hashing them for the result cache: two
// option sets that resolve identically analyse identically.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Trees <= 0 {
		o.Trees = 80
	}
	if o.PruneStep <= 0 {
		o.PruneStep = rank.DefaultPruneStep
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinRuns <= 0 || o.MinRuns > o.Runs {
		o.MinRuns = o.Runs
	}
	o.Retry = o.Retry.withDefaults()
	o.CleanOptions = o.CleanOptions.WithDefaults()
	return o
}

// cleanOptions returns the options the Clean stage runs with: the
// cleaner works on Workers workers unless its own options set a bound.
func (o Options) cleanOptions() clean.Options {
	c := o.CleanOptions
	if c.Workers == 0 {
		c.Workers = o.Workers
	}
	return c
}

// EventScore is one ranked event in an Analysis.
type EventScore struct {
	// Event is the full event name, Abbrev the Table III code.
	Event, Abbrev string
	// Importance is the normalised relative influence in percent.
	Importance float64
}

// PairScore is one ranked event-pair interaction.
type PairScore struct {
	// A and B are the pair's event abbreviations.
	A, B string
	// Importance is the normalised interaction intensity in percent.
	Importance float64
}

// Key renders the pair as "A-B", Fig. 11/12 style.
func (p PairScore) Key() string { return p.A + "-" + p.B }

// Analysis is the result of mining one benchmark's counter data.
type Analysis struct {
	// Benchmark is the analysed workload.
	Benchmark string
	// Cleaner is the registry name of the cleaner the Clean stage ran
	// (clean.DefaultCleaner unless the options selected another).
	Cleaner string
	// Events is the analysed event count (model input dimension before
	// refinement).
	Events int
	// ModelError is the MAPM's held-out relative IPC error in percent
	// (eq. 14).
	ModelError float64
	// MAPMEvents is the event count of the most accurate model.
	MAPMEvents int
	// Importance ranks all MAPM events by descending importance.
	Importance []EventScore
	// Interactions ranks the TopK events' pairs by interaction
	// intensity.
	Interactions []PairScore
	// EIRNumEvents and EIRErrors trace the refinement curve (Fig. 8).
	EIRNumEvents []int
	EIRErrors    []float64
	// OutliersReplaced and MissingFilled aggregate the cleaner's work.
	OutliersReplaced, MissingFilled int
	// Fingerprint is the workload's counter-signature embedding: the
	// combined per-run embedding of the raw, as-collected series (see
	// internal/fingerprint). It is deterministic for a given profile,
	// seed, and event set — bit-identical at any worker count and on
	// any node — and feeds the clustering index behind /classify.
	Fingerprint []float64
	// Degradation reports everything the analysis survived: retried
	// and failed runs, quarantined event columns, store write
	// failures. Its zero value means the analysis ran entirely clean.
	Degradation Degradation
	// Stages records the wall time of every executed pipeline stage in
	// execution order (see StageReport). Timings are observability
	// metadata: unlike every other field they naturally differ between
	// runs, so result-identity comparisons should ignore them.
	Stages []StageTiming
}

// TopEvents returns the k most important events.
func (a *Analysis) TopEvents(k int) []EventScore {
	if k > len(a.Importance) {
		k = len(a.Importance)
	}
	return append([]EventScore(nil), a.Importance[:k]...)
}

// TopInteractions returns the k strongest event-pair interactions.
func (a *Analysis) TopInteractions(k int) []PairScore {
	if k > len(a.Interactions) {
		k = len(a.Interactions)
	}
	return append([]PairScore(nil), a.Interactions[:k]...)
}

// SMICount reports how many of the top three events are significantly
// more important than the fourth (ratio 1.5), checking the paper's
// one–three SMI law.
func (a *Analysis) SMICount() int {
	if len(a.Importance) < 4 {
		return len(a.Importance)
	}
	cutoff := a.Importance[3].Importance * 1.5
	n := 0
	for _, e := range a.Importance[:3] {
		if e.Importance > cutoff {
			n++
		}
	}
	return n
}

// Pipeline wires collector, cleaner, importance ranker, and interaction
// ranker together over the simulated cluster.
type Pipeline struct {
	opts    Options
	cat     *sim.Catalogue
	cleaner clean.Cleaner
	source  fault.RunSource
	sink    fault.RunSink
}

// NewPipeline builds a pipeline with the given options. Invalid
// options (Options.Validate) are rejected here, with typed errors,
// before any compute is spent.
func NewPipeline(opts Options) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	cleaner, err := clean.Lookup(opts.CleanOptions.Cleaner)
	if err != nil {
		return nil, err
	}
	cat := sim.NewCatalogue()
	p := &Pipeline{
		opts:    opts,
		cat:     cat,
		cleaner: cleaner,
		source:  opts.Source,
	}
	if p.source == nil {
		p.source = collector.New(cat)
	}
	p.sink = opts.Sink
	if p.sink == nil && opts.StorePath != "" {
		db, err := store.Open(opts.StorePath)
		if err != nil {
			return nil, err
		}
		p.sink = db
	}
	return p, nil
}

// Catalogue exposes the event catalogue (for resolving abbreviations).
func (p *Pipeline) Catalogue() *sim.Catalogue { return p.cat }

// Benchmarks lists the available workload names.
func (p *Pipeline) Benchmarks() []string { return sim.AllBenchmarkNames() }

// AnalyzeContext runs the full CounterMiner pipeline on one benchmark
// — the staged plan Collect (MLPX) → Validate → Clean → Rank (EIR →
// MAPM) → Interact → Persist — under the given context. Cancellation
// is observed at every stage boundary and inside the long interior
// loops (retry backoff, SGBRT boosting, EIR pruning, pair ranking), so
// an abort takes effect within one unit of work; the returned error
// then matches ErrCanceled (and the underlying context error) via
// errors.Is. An analysis whose stages all completed is returned even
// if the context is canceled afterwards. This is the primary API;
// Analyze is the context-free convenience wrapper.
func (p *Pipeline) AnalyzeContext(ctx context.Context, benchmark string) (*Analysis, error) {
	prof, err := sim.ProfileByName(benchmark)
	if err != nil {
		return nil, err
	}
	return p.analyzeProfile(ctx, prof)
}

// Analyze runs AnalyzeContext with a background context.
func (p *Pipeline) Analyze(benchmark string) (*Analysis, error) {
	return p.AnalyzeContext(context.Background(), benchmark)
}

// AnalyzeColocatedContext analyses two benchmarks sharing the cluster
// (§V-E) under the given context, with AnalyzeContext's cancellation
// contract.
func (p *Pipeline) AnalyzeColocatedContext(ctx context.Context, benchA, benchB string) (*Analysis, error) {
	a, err := sim.ProfileByName(benchA)
	if err != nil {
		return nil, err
	}
	b, err := sim.ProfileByName(benchB)
	if err != nil {
		return nil, err
	}
	return p.analyzeProfile(ctx, sim.Colocate(a, b))
}

// AnalyzeColocated runs AnalyzeColocatedContext with a background
// context.
func (p *Pipeline) AnalyzeColocated(benchA, benchB string) (*Analysis, error) {
	return p.AnalyzeColocatedContext(context.Background(), benchA, benchB)
}

// FingerprintContext collects the benchmark's runs (honouring the
// configured retry policy and run quorum) and returns the profile's
// workload fingerprint without analysing it: the stage plan is just
// Collect → Fingerprint. This is the /classify fast path — an
// unknown profile is embedded from its raw series, skipping
// validation, cleaning, and model fitting entirely (the embedding's
// robust statistics do the tolerating; see internal/fingerprint). A
// non-empty colocate names a second benchmark sharing the cluster.
func (p *Pipeline) FingerprintContext(ctx context.Context, benchmark, colocate string) ([]float64, error) {
	prof, err := sim.ProfileByName(benchmark)
	if err != nil {
		return nil, err
	}
	if colocate != "" {
		other, err := sim.ProfileByName(colocate)
		if err != nil {
			return nil, err
		}
		prof = sim.Colocate(prof, other)
	}
	ar := p.newRun(prof)
	sr := &stageRunner{ctx: ctx}
	if err := sr.run([]stage{
		{StageCollect, ar.collect},
		{StageFingerprint, ar.fingerprint},
	}); err != nil {
		return nil, err
	}
	return ar.ana.Fingerprint, nil
}

// analysisRun carries one analysis through the stage plan: the options
// and profile going in, the intermediate products handed from stage to
// stage, and the Analysis being assembled. Validate sets its miner's
// kept columns and Clean fills X and y, which the miner's Rank and
// Interact stages read.
type analysisRun struct {
	miner
	p      *Pipeline
	prof   sim.Profile
	events []string // requested events
	deg    *Degradation

	runs []*collector.Run  // Collect: surviving runs
	raw  []*timeseries.Set // Clean: each run's raw series, kept for Persist
	vecs [][]float64       // Fingerprint: each run's embedding, handed to Persist
}

// newRun starts an analysis of prof over the configured events (the
// whole catalogue by default).
func (p *Pipeline) newRun(prof sim.Profile) *analysisRun {
	events := p.opts.Events
	if events == nil {
		events = p.cat.Events()
	}
	ar := &analysisRun{
		miner: miner{
			opts: p.opts,
			cat:  p.cat,
			ana:  &Analysis{Benchmark: prof.Name, Cleaner: p.cleaner.Name(), Events: len(events)},
		},
		p:      p,
		prof:   prof,
		events: events,
	}
	ar.deg = &ar.ana.Degradation
	return ar
}

// analyzeProfile executes the stage plan over one (possibly
// co-located) profile.
func (p *Pipeline) analyzeProfile(ctx context.Context, prof sim.Profile) (*Analysis, error) {
	ar := p.newRun(prof)
	if len(ar.events) < 2 {
		return nil, errors.New("counterminer: need at least two events")
	}
	sr := &stageRunner{ctx: ctx}
	err := sr.run([]stage{
		{StageCollect, ar.collect},
		{StageValidate, ar.validate},
		{StageClean, ar.clean},
		{StageRank, ar.rank},
		{StageInteract, ar.interact},
		{StageFingerprint, ar.fingerprint},
		{StagePersist, ar.persist},
	})
	ar.ana.Stages = sr.timings
	if err != nil {
		return nil, err
	}
	return ar.ana, nil
}

// collect gathers the configured runs, each wrapped in the capped-
// backoff retry loop, and enforces the run quorum. Cluster-scale
// collection loses runs; the analysis degrades gracefully as long as
// MinRuns survive, and every loss is recorded in the Degradation
// report. A canceled context is not a lost run: it aborts the stage
// without charging the quorum.
func (ar *analysisRun) collect(ctx context.Context) error {
	p, deg := ar.p, ar.deg
	ar.runs = make([]*collector.Run, 0, p.opts.Runs)
	for run := 1; run <= p.opts.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		runID := int(p.opts.Seed)*100 + run
		deg.RunsAttempted++
		r, attempts, err := p.collectWithRetry(ctx, ar.prof, runID, ar.events)
		if attempts > 1 {
			deg.Retries += attempts - 1
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			deg.RunsFailed = append(deg.RunsFailed, RunFailure{
				RunID: runID, Attempts: attempts, Reason: err.Error(),
			})
			continue
		}
		deg.RunsSucceeded++
		ar.runs = append(ar.runs, r)
	}
	if len(ar.runs) < p.opts.MinRuns {
		return &QuorumError{
			Benchmark: ar.prof.Name,
			Succeeded: len(ar.runs),
			Required:  p.opts.MinRuns,
			Attempted: p.opts.Runs,
			Failures:  append([]RunFailure(nil), deg.RunsFailed...),
		}
	}
	return nil
}

// validate quarantines event columns no cleaner can repair (truncated
// or dropped intervals, NaN/Inf garbage, dead counters). A column
// quarantined in any run is excluded from all of them so the training
// matrices stay column-aligned across runs.
func (ar *analysisRun) validate(ctx context.Context) error {
	deg := ar.deg
	quarantined := make(map[string]bool)
	for _, r := range ar.runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, ev := range ar.events {
			if quarantined[ev] {
				continue
			}
			reason := ""
			if s, err := r.Series.Lookup(ev); err != nil {
				reason = "missing from run"
			} else if verr := clean.ValidateSeries(s.Values, len(r.IPC)); verr != nil {
				reason = verr.Error()
			}
			if reason != "" {
				quarantined[ev] = true
				deg.EventsQuarantined = append(deg.EventsQuarantined, Quarantine{
					Event: ev, RunID: r.RunID, Reason: reason,
				})
			}
		}
	}
	ar.kept = ar.events
	if len(quarantined) > 0 {
		ar.kept = make([]string, 0, len(ar.events)-len(quarantined))
		for _, ev := range ar.events {
			if !quarantined[ev] {
				ar.kept = append(ar.kept, ev)
			}
		}
	}
	if len(ar.kept) < 2 {
		return &SeriesError{
			Benchmark:   ar.prof.Name,
			Remaining:   len(ar.kept),
			Quarantined: append([]Quarantine(nil), deg.EventsQuarantined...),
		}
	}
	return nil
}

// clean repairs every surviving run's series and assembles the
// training matrix, dispatching through the configured Cleaner (the
// Clean-stage seam). Each run's raw series set is snapshotted
// first so Persist can store the run exactly as collected (every event,
// quarantined ones included) — whichever cleaner ran, the store always
// holds the raw measurement.
func (ar *analysisRun) clean(ctx context.Context) error {
	p, ana := ar.p, ar.ana
	copts := p.opts.cleanOptions()
	ar.raw = make([]*timeseries.Set, 0, len(ar.runs))
	for _, r := range ar.runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		meta := clean.Meta{Benchmark: r.Benchmark, Groups: r.Groups}
		cleaned, rep, err := p.cleaner.Clean(ctx, subset(r.Series, ar.kept), meta, copts)
		if err != nil {
			return err
		}
		ana.OutliersReplaced += rep.TotalOutliers
		ana.MissingFilled += rep.TotalMissing
		ar.raw = append(ar.raw, r.Series)
		r.Series = cleaned
		Xr, yr, err := r.TrainingMatrix(ar.kept)
		if err != nil {
			return err
		}
		ar.X = append(ar.X, Xr...)
		ar.y = append(ar.y, yr...)
	}
	return nil
}

// miner is the mining core both entry points share: over a cleaned
// training matrix it runs the Rank stage (EIR → MAPM, or one fit under
// SkipEIR) and then the Interact stage, and names the events it
// reports. A Pipeline's analysisRun embeds one; AnalyzeData builds one
// over the external data set.
type miner struct {
	opts Options        // resolved
	cat  *sim.Catalogue // abbreviates event names; nil keeps them as given
	ana  *Analysis

	kept []string    // the column names of X
	X    [][]float64 // training matrix, one row per interval
	y    []float64   // per-interval IPC targets
	mapm *rank.Model // Rank: the most accurate performance model
}

// params configures an SGBRT ensemble of the given size.
func (m *miner) params(trees int) sgbrt.Params {
	return sgbrt.Params{Trees: trees, MaxDepth: 4, Seed: m.opts.Seed, Workers: m.opts.Workers}
}

// rank fits the performance models (EIR → MAPM) and reads off the
// importance ranking.
func (m *miner) rank(ctx context.Context) error {
	ana := m.ana
	ropts := rank.Options{Params: m.params(m.opts.Trees), PruneStep: m.opts.PruneStep, Seed: m.opts.Seed}
	if m.opts.SkipEIR {
		mod, err := rank.FitCtx(ctx, m.X, m.y, m.kept, ropts)
		if err != nil {
			return err
		}
		m.mapm = mod
		ana.EIRNumEvents = []int{len(m.kept)}
		ana.EIRErrors = []float64{mod.TestError}
	} else {
		res, err := rank.EIRCtx(ctx, m.X, m.y, m.kept, ropts)
		if err != nil {
			return err
		}
		m.mapm = res.MAPM()
		ana.EIRNumEvents, ana.EIRErrors = res.Curve()
	}
	ana.ModelError = m.mapm.TestError
	ana.MAPMEvents = len(m.mapm.Events)
	for _, ei := range m.mapm.Ranking {
		ana.Importance = append(ana.Importance, EventScore{
			Event:      ei.Event,
			Abbrev:     m.abbrev(ei.Event),
			Importance: ei.Importance,
		})
	}
	return nil
}

// interact ranks the interactions among the top events. Per §III-D the
// ranker runs after the important events are known: a dedicated model
// of twice Rank's trees is fitted on just those events, which
// concentrates the ensemble's capacity on the pair structure instead
// of spreading it over hundreds of inputs. The model is fitted on the
// MAPM's own training split, which is the split a fresh fit on the
// re-projected columns would draw; the pair ranking reads every row.
func (m *miner) interact(ctx context.Context) error {
	top := m.mapm.TopK(m.opts.TopK)
	if len(top) < 2 {
		return nil
	}
	names := make([]string, len(top))
	for i, ei := range top {
		names[i] = ei.Event
	}
	subX, err := matrixColumns(m.X, m.kept, names)
	if err != nil {
		return err
	}
	iModel, err := m.mapm.FitEventsCtx(ctx, names, m.params(m.opts.Trees*2))
	if err != nil {
		return err
	}
	pairs, err := interact.RankPairsCtx(ctx, iModel, subX, names, interact.Options{Workers: m.opts.Workers})
	if err != nil {
		return err
	}
	for _, ps := range pairs {
		m.ana.Interactions = append(m.ana.Interactions, PairScore{
			A:          m.abbrev(ps.A),
			B:          m.abbrev(ps.B),
			Importance: ps.Importance,
		})
	}
	return nil
}

// abbrev maps an event name to its catalogue abbreviation, or to
// itself when it has none or the miner has no catalogue.
func (m *miner) abbrev(event string) string {
	if m.cat != nil {
		if ev, ok := m.cat.ByName(event); ok {
			return ev.Abbrev
		}
	}
	return event
}

// fingerprint embeds each surviving run's raw, as-collected series
// (every event, quarantined ones included — exactly what Persist
// writes, so an index rebuilt from the store reproduces these
// embeddings bit-for-bit) and combines them into the analysis's
// workload signature. On the collect-only path (FingerprintContext)
// no raw snapshot exists yet and the runs still carry their raw
// series directly. The runs embed concurrently on Options.Workers
// workers; each embedding reads only its own run, and Combine folds
// them in run order, so the signature is the same for every worker
// count. Persist hands each run's embedding to the sink with the run.
func (ar *analysisRun) fingerprint(ctx context.Context) error {
	vecs, err := parallel.MapCtx(ctx, len(ar.runs), ar.p.opts.Workers, func(i int) ([]float64, error) {
		r := ar.runs[i]
		set := r.Series
		if ar.raw != nil {
			set = ar.raw[i]
		}
		return fingerprint.Embed(set, r.IPC), nil
	})
	if err != nil {
		return err
	}
	ar.vecs = vecs
	ar.ana.Fingerprint = fingerprint.Combine(vecs)
	return nil
}

// persist writes every surviving run — its raw, as-collected series —
// into the sink and flushes. A failed write loses persistence only,
// never the analysis. A cancellation between writes skips this
// analysis's own Flush, but the runs it already put stay in the store
// and reach disk with the next flush, by writeback or by another
// analysis. The store's flush writes only the runs put since the last
// flush, each to its own file atomically, so its cost does not grow
// with the runs already stored and a crash leaves each run with either
// its old or its new contents.
func (ar *analysisRun) persist(ctx context.Context) error {
	p, deg := ar.p, ar.deg
	if p.sink == nil {
		return nil
	}
	for i, r := range ar.runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.persistRun(r, ar.raw[i], ar.vecs[i]); err != nil {
			deg.StoreErrors = append(deg.StoreErrors, p.storeErr(err))
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := p.sink.Flush(); err != nil {
		deg.StoreErrors = append(deg.StoreErrors, p.storeErr(err))
	}
	return nil
}

// storeErr renders a persist failure with the store path attached, so
// the Degradation report (and the CLI printing it) tells the operator
// where the damaged shard lives — not just that a write failed. A
// pipeline running on an injected Sink with no configured path passes
// the error through unchanged.
func (p *Pipeline) storeErr(err error) string {
	if p.opts.StorePath == "" {
		return err.Error()
	}
	return fmt.Sprintf("store %s: %v", p.opts.StorePath, err)
}

// collectWithRetry wraps one run collection in the Options.Retry
// policy: up to Attempts tries with capped exponential backoff. It
// returns the run, the attempts spent, and a *RunError (matching
// ErrRunFailed) once every attempt has failed. A context canceled
// before or between attempts — including mid-backoff — aborts the loop
// with the context's error and is never counted or retried as a failed
// attempt.
func (p *Pipeline) collectWithRetry(ctx context.Context, prof sim.Profile, runID int, events []string) (*collector.Run, int, error) {
	pol := p.opts.Retry
	var lastErr error
	for a := 1; a <= pol.Attempts; a++ {
		if a > 1 {
			if err := pol.sleep(ctx, pol.delay(a-1)); err != nil {
				return nil, a - 1, err
			}
		} else if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		r, err := p.source.Collect(prof, runID, collector.MLPX, events)
		if err == nil {
			return r, a, nil
		}
		lastErr = err
	}
	return nil, pol.Attempts, &RunError{
		Benchmark: prof.Name, RunID: runID, Attempts: pol.Attempts, Err: lastErr,
	}
}

// subset returns a set holding only the given events (series shared,
// not copied); the input is returned unchanged when nothing is
// excluded.
func subset(in *timeseries.Set, events []string) *timeseries.Set {
	if in.Len() == len(events) {
		return in
	}
	out := timeseries.NewSet()
	for _, ev := range events {
		if s, ok := in.Get(ev); ok {
			out.Put(s)
		}
	}
	return out
}

// persistRun writes one collected run into the store, using the raw
// as-collected series set (the run itself carries the cleaned subset
// by the time Persist executes) and the Fingerprint stage's embedding
// of that set.
func (p *Pipeline) persistRun(r *collector.Run, raw *timeseries.Set, vec []float64) error {
	rec := store.Record{
		Meta: store.RunMeta{
			Benchmark: r.Benchmark,
			RunID:     r.RunID,
			Mode:      r.Mode.String(),
			Intervals: len(r.IPC),
		},
		IPC:       r.IPC,
		Series:    make(map[string][]float64, raw.Len()),
		Embedding: vec,
	}
	for _, ev := range raw.Events() {
		s, err := raw.Lookup(ev)
		if err != nil {
			return err
		}
		rec.Meta.Events = append(rec.Meta.Events, ev)
		rec.Series[ev] = s.Values
	}
	return p.sink.Put(rec)
}

// matrixColumns re-projects X (whose columns follow `from`) onto the
// column order `to`.
func matrixColumns(X [][]float64, from, to []string) ([][]float64, error) {
	idx := make(map[string]int, len(from))
	for i, ev := range from {
		idx[ev] = i
	}
	cols := make([]int, len(to))
	for j, ev := range to {
		i, ok := idx[ev]
		if !ok {
			return nil, fmt.Errorf("counterminer: column %q missing", ev)
		}
		cols[j] = i
	}
	out := make([][]float64, len(X))
	for r, row := range X {
		sub := make([]float64, len(cols))
		for j, c := range cols {
			sub[j] = row[c]
		}
		out[r] = sub
	}
	return out, nil
}
