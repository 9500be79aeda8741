// Package collector is CounterMiner's data collector (§III-A). It runs
// benchmarks on the simulated cluster and samples event values as time
// series, in either of the two modes the paper describes:
//
//   - OCOE (one counter one event): accurate, but at most as many
//     events per run as there are programmable counters. Measuring a
//     large event set in OCOE mode therefore spans many runs, and the
//     per-run series cannot be aligned against a single run's IPC —
//     the very limitation that makes MLPX mandatory.
//   - MLPX (multiplexing): all requested events in one run, with
//     time-sharing errors (outliers, missing values).
//
// Fixed counters (cycles, instructions) never multiplex, so every run
// also carries an accurately measured IPC series.
package collector

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"counterminer/internal/mlpx"
	"counterminer/internal/sim"
	"counterminer/internal/timeseries"
)

// Mode selects the sampling strategy.
type Mode int

const (
	// OCOE is one-counter-one-event sampling.
	OCOE Mode = iota
	// MLPX is multiplexed sampling.
	MLPX
)

func (m Mode) String() string {
	if m == OCOE {
		return "OCOE"
	}
	return "MLPX"
}

// Run is one collected benchmark execution.
type Run struct {
	// Benchmark is the profile name.
	Benchmark string
	// RunID identifies the execution; equal RunIDs replay identical
	// machine behaviour.
	RunID int
	// Mode is the sampling mode used.
	Mode Mode
	// Series holds the sampled event time series.
	Series *timeseries.Set
	// IPC is the per-interval IPC from the fixed counters.
	IPC []float64
	// Groups is the multiplexing group count (1 for OCOE).
	Groups int
}

// Collector samples benchmark runs from the simulated cluster. It is
// safe for concurrent use: the experiment sweeps collect runs from
// many goroutines against one collector.
type Collector struct {
	pmu sim.PMU
	cat *sim.Catalogue

	mu   sync.Mutex
	gens map[string]*sim.Generator

	// Memoization accounting: builds counts expensive generator
	// constructions, memoHits counts lookups served from the memo.
	// /metrics exposes both; the memo never evicts, so builds equals
	// the distinct profiles collected in any order.
	builds   atomic.Uint64
	memoHits atomic.Uint64
}

// New returns a collector over the given catalogue using the default
// PMU configuration.
func New(cat *sim.Catalogue) *Collector {
	return &Collector{
		pmu:  sim.DefaultPMU(),
		cat:  cat,
		gens: make(map[string]*sim.Generator),
	}
}

// PMU returns the collector's PMU configuration.
func (c *Collector) PMU() sim.PMU { return c.pmu }

// Catalogue returns the collector's event catalogue.
func (c *Collector) Catalogue() *sim.Catalogue { return c.cat }

// newGenerator builds a profile's trace generator. It is a package
// variable so the memoization test can count how often the expensive
// build actually happens.
var newGenerator = sim.NewGenerator

// generator returns (building if needed) the trace generator for a
// profile.
func (c *Collector) generator(p sim.Profile) (*sim.Generator, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.gens[p.Name]; ok {
		c.memoHits.Add(1)
		return g, nil
	}
	g, err := newGenerator(p, c.cat)
	if err != nil {
		return nil, err
	}
	c.builds.Add(1)
	c.gens[p.Name] = g
	return g, nil
}

// MemoStats reports the generator memoization counters: how many
// expensive generator builds happened (at most one per profile) and
// how many lookups the memo absorbed.
func (c *Collector) MemoStats() (builds, hits uint64) {
	return c.builds.Load(), c.memoHits.Load()
}

// Collect performs one benchmark run and samples the given events in
// the given mode. In OCOE mode the event list must fit the programmable
// counters; use CollectOCOESweep to cover a larger list across runs.
// The run simulates only the requested events and those that feed IPC,
// and samples exactly what a full simulation of the run would hold.
func (c *Collector) Collect(p sim.Profile, runID int, mode Mode, events []string) (*Run, error) {
	if len(events) == 0 {
		return nil, errors.New("collector: no events requested")
	}
	g, err := c.generator(p)
	if err != nil {
		return nil, err
	}
	tr := g.GenerateEvents(runID, events)
	seed := p.Seed*4049 + int64(runID)*211

	run := &Run{
		Benchmark: p.Name,
		RunID:     runID,
		Mode:      mode,
		Series:    timeseries.NewSet(),
		IPC:       c.pmu.MeasureIPC(tr, seed),
		Groups:    1,
	}
	switch mode {
	case OCOE:
		obs, err := c.pmu.MeasureOCOE(tr, events, seed)
		if err != nil {
			return nil, err
		}
		for ev, vals := range obs {
			run.Series.Put(timeseries.New(ev, vals))
		}
	case MLPX:
		res, err := mlpx.Measure(tr, events, c.pmu, seed)
		if err != nil {
			return nil, err
		}
		run.Groups = res.Groups
		for ev, vals := range res.Series {
			run.Series.Put(timeseries.New(ev, vals))
		}
	default:
		return nil, fmt.Errorf("collector: unknown mode %d", mode)
	}
	return run, nil
}

// CollectOCOESweep measures an arbitrarily large event list at OCOE
// fidelity by splitting it into counter-sized chunks, one benchmark run
// per chunk, starting at firstRunID. It returns one Run per chunk. The
// chunks come from different executions, so their series lengths differ
// and cannot be column-aligned — the fundamental OCOE cost the paper
// quantifies (Fig. 15's method B).
func (c *Collector) CollectOCOESweep(p sim.Profile, firstRunID int, events []string) ([]*Run, error) {
	if len(events) == 0 {
		return nil, errors.New("collector: no events requested")
	}
	var runs []*Run
	for i := 0; i < len(events); i += c.pmu.Programmable {
		end := i + c.pmu.Programmable
		if end > len(events) {
			end = len(events)
		}
		run, err := c.Collect(p, firstRunID+i/c.pmu.Programmable, OCOE, events[i:end])
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// TrainingMatrix converts a run into the (X, y) pair the importance
// ranker trains on: one row per interval, one column per event (in the
// given order), y = IPC. The series and IPC are truncated to the
// shortest common length.
func (r *Run) TrainingMatrix(events []string) ([][]float64, []float64, error) {
	X, err := r.Series.Matrix(events)
	if err != nil {
		return nil, nil, err
	}
	n := len(X)
	if len(r.IPC) < n {
		n = len(r.IPC)
		X = X[:n]
	}
	y := append([]float64(nil), r.IPC[:n]...)
	return X, y, nil
}
