package counterminer

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"counterminer/internal/clean"
	"counterminer/internal/fingerprint"
	"counterminer/internal/interact"
	"counterminer/internal/rank"
	"counterminer/internal/sgbrt"
	"counterminer/internal/timeseries"
)

// This file is the adoption path for real counter data: everything
// needed to run CounterMiner's cleaner and rankers on measurements that
// did NOT come from the built-in simulator — e.g. perf-stat output
// post-processed into per-interval rows.

// DataSet is externally collected counter data: one row per sampling
// interval, one column per event, plus the per-interval performance
// metric (typically IPC from the fixed counters).
type DataSet struct {
	// Events names the columns of X.
	Events []string
	// X[i][j] is event j's value in interval i.
	X [][]float64
	// Y[i] is the performance metric in interval i.
	Y []float64
}

// Validate checks the data set's shape, that no event name repeats, and
// that every performance value is finite. Non-finite counter values in
// X are accepted: cleaning repairs them.
func (d *DataSet) Validate() error {
	if len(d.Events) == 0 {
		return errors.New("counterminer: data set without events")
	}
	seen := make(map[string]int, len(d.Events))
	for j, ev := range d.Events {
		if k, dup := seen[ev]; dup {
			return fmt.Errorf("counterminer: duplicate event %q (columns %d and %d)", ev, k, j)
		}
		seen[ev] = j
	}
	if len(d.X) == 0 {
		return errors.New("counterminer: data set without rows")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("counterminer: %d rows but %d performance values", len(d.X), len(d.Y))
	}
	for i, row := range d.X {
		if len(row) != len(d.Events) {
			return fmt.Errorf("counterminer: row %d has %d values, want %d", i, len(row), len(d.Events))
		}
		if math.IsNaN(d.Y[i]) || math.IsInf(d.Y[i], 0) {
			return fmt.Errorf("counterminer: row %d has performance value %v", i, d.Y[i])
		}
	}
	return nil
}

// Clean runs the configured data cleaner (opts.Cleaner, default the
// §III-B threshold+KNN pipeline) over every event column in place,
// treating each column as that event's time series. It returns the
// totals. External data carries no multiplexing metadata, so cleaners
// run with an unknown group count and fall back to purely data-driven
// repair.
func (d *DataSet) Clean(opts clean.Options) (outliers, missing int, err error) {
	return d.CleanContext(context.Background(), opts)
}

// CleanContext is Clean with cooperative cancellation.
func (d *DataSet) CleanContext(ctx context.Context, opts clean.Options) (outliers, missing int, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, err
	}
	cleaner, err := clean.Lookup(opts.Cleaner)
	if err != nil {
		return 0, 0, err
	}
	set := timeseries.NewSet()
	for j, ev := range d.Events {
		col := make([]float64, len(d.X))
		for i := range d.X {
			col[i] = d.X[i][j]
		}
		set.Put(timeseries.New(ev, col))
	}
	cleaned, rep, err := cleaner.Clean(ctx, set, clean.Meta{Benchmark: "external"}, opts)
	if err != nil {
		return 0, 0, fmt.Errorf("counterminer: %w", err)
	}
	for j, ev := range d.Events {
		s, err := cleaned.Lookup(ev)
		if err != nil {
			return 0, 0, fmt.Errorf("counterminer: clean column %s: %w", ev, err)
		}
		for i := range d.X {
			d.X[i][j] = s.Values[i]
		}
	}
	return rep.TotalOutliers, rep.TotalMissing, nil
}

// Fingerprint returns the data set's workload fingerprint: the
// counter-signature embedding of its event columns, with Y as the IPC
// series (see internal/fingerprint). Raw and cleaned data embed
// closely — the features are robust statistics — so the fingerprint
// of an uncleaned perf capture can be classified against an index
// built from cleaned analyses. Counter values too extreme to embed
// finitely are an error.
func (d *DataSet) Fingerprint() ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	set := timeseries.NewSet()
	for j, ev := range d.Events {
		col := make([]float64, len(d.X))
		for i := range d.X {
			col[i] = d.X[i][j]
		}
		set.Put(timeseries.New(ev, col))
	}
	vec := fingerprint.Embed(set, d.Y)
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("counterminer: fingerprint component %d is %v", i, v)
		}
	}
	return vec, nil
}

// AnalyzeDataContext runs the mining stages — optional cleaning,
// EIR/MAPM importance ranking, interaction ranking, and workload
// fingerprinting — on an external data set, under the given context
// with the AnalyzeContext cancellation contract (stage plan Clean →
// Rank → Interact → Fingerprint). The simulator is not involved; this
// is the entry point for real perf measurements. Options fields that
// concern collection (Runs, Events, StorePath) are ignored.
func AnalyzeDataContext(ctx context.Context, d *DataSet, opts Options) (*Analysis, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	// Validate before defaulting, so out-of-range clean options are
	// rejected rather than silently raised onto the paper defaults.
	if err := opts.CleanOptions.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	ana := &Analysis{Benchmark: "external", Cleaner: opts.CleanOptions.Cleaner, Events: len(d.Events)}
	var mapm *rank.Model
	sr := &stageRunner{ctx: ctx}
	err := sr.run([]stage{
		{StageClean, func(ctx context.Context) error {
			copts := opts.CleanOptions
			if copts.Workers == 0 {
				copts.Workers = opts.Workers
			}
			out, miss, err := d.CleanContext(ctx, copts)
			if err != nil {
				return err
			}
			ana.OutliersReplaced, ana.MissingFilled = out, miss
			return nil
		}},
		{StageRank, func(ctx context.Context) error {
			ropts := rank.Options{
				Params:    sgbrt.Params{Trees: opts.Trees, MaxDepth: 4, Seed: opts.Seed, Workers: opts.Workers},
				PruneStep: opts.PruneStep,
				Seed:      opts.Seed,
			}
			if opts.SkipEIR {
				m, err := rank.FitCtx(ctx, d.X, d.Y, d.Events, ropts)
				if err != nil {
					return err
				}
				mapm = m
				ana.EIRNumEvents = []int{len(d.Events)}
				ana.EIRErrors = []float64{m.TestError}
			} else {
				res, err := rank.EIRCtx(ctx, d.X, d.Y, d.Events, ropts)
				if err != nil {
					return err
				}
				mapm = res.MAPM()
				ana.EIRNumEvents, ana.EIRErrors = res.Curve()
			}
			ana.ModelError = mapm.TestError
			ana.MAPMEvents = len(mapm.Events)
			for _, ei := range mapm.Ranking {
				ana.Importance = append(ana.Importance, EventScore{
					Event: ei.Event, Abbrev: ei.Event, Importance: ei.Importance,
				})
			}
			return nil
		}},
		{StageInteract, func(ctx context.Context) error {
			top := mapm.TopK(opts.TopK)
			if len(top) < 2 {
				return nil
			}
			names := make([]string, len(top))
			for i, ei := range top {
				names[i] = ei.Event
			}
			subX, err := matrixColumns(d.X, d.Events, names)
			if err != nil {
				return err
			}
			iModel, err := rank.FitCtx(ctx, subX, d.Y, names, rank.Options{
				Params: sgbrt.Params{Trees: opts.Trees * 2, MaxDepth: 4, Seed: opts.Seed, Workers: opts.Workers},
				Seed:   opts.Seed,
			})
			if err != nil {
				return err
			}
			pairs, err := interact.RankPairsCtx(ctx, iModel, subX, names, interact.Options{Workers: opts.Workers})
			if err != nil {
				return err
			}
			for _, ps := range pairs {
				ana.Interactions = append(ana.Interactions, PairScore{
					A: ps.A, B: ps.B, Importance: ps.Importance,
				})
			}
			return nil
		}},
		{StageFingerprint, func(ctx context.Context) error {
			vec, err := d.Fingerprint()
			if err != nil {
				return err
			}
			ana.Fingerprint = vec
			return nil
		}},
	})
	ana.Stages = sr.timings
	if err != nil {
		return nil, err
	}
	return ana, nil
}

// AnalyzeData runs AnalyzeDataContext with a background context.
func AnalyzeData(d *DataSet, opts Options) (*Analysis, error) {
	return AnalyzeDataContext(context.Background(), d, opts)
}

// LoadCSV reads a data set in the layout ExportCSV (and cmstore
// -export) writes: a header "interval,<event...>,ipc" followed by one
// row per interval. The interval column is checked for monotonicity
// but otherwise ignored.
func LoadCSV(r io.Reader) (*DataSet, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("counterminer: csv header: %w", err)
	}
	if len(header) < 3 {
		return nil, fmt.Errorf("counterminer: csv needs interval, >=1 event, and ipc columns; got %d", len(header))
	}
	if header[0] != "interval" {
		return nil, fmt.Errorf("counterminer: first csv column is %q, want \"interval\"", header[0])
	}
	if header[len(header)-1] != "ipc" {
		return nil, fmt.Errorf("counterminer: last csv column is %q, want \"ipc\"", header[len(header)-1])
	}
	d := &DataSet{Events: append([]string(nil), header[1:len(header)-1]...)}
	prev := -1
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("counterminer: csv row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("counterminer: csv row has %d fields, want %d", len(rec), len(header))
		}
		iv, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("counterminer: interval %q: %w", rec[0], err)
		}
		if iv <= prev {
			return nil, fmt.Errorf("counterminer: interval column not increasing at %d", iv)
		}
		prev = iv
		row := make([]float64, len(d.Events))
		for j := range row {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("counterminer: value %q: %w", rec[j+1], err)
			}
			row[j] = v
		}
		y, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("counterminer: ipc %q: %w", rec[len(rec)-1], err)
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
