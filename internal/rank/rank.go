// Package rank implements CounterMiner's importance ranker (§III-C):
// it models IPC as a function of event values with SGBRT, quantifies
// each event's importance by Friedman relative influence (eq. (10) and
// (11), normalised to percentages), and refines the event set with EIR
// (Event Importance Refinement): iteratively drop the least important
// events and refit until the Most Accurate Performance Model (MAPM) is
// found. The importance ranking read off the MAPM is the paper's final
// answer.
package rank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"counterminer/internal/sgbrt"
)

// DefaultPruneStep is how many events EIR drops per iteration (§III-C:
// "we remove the 10 least important events").
const DefaultPruneStep = 10

// DefaultTestFraction is the held-out share used to score each model
// (the paper uses one quarter of the training example count as unseen
// test examples).
const DefaultTestFraction = 0.25

// Options configures the ranker.
type Options struct {
	// Params configures the underlying SGBRT ensembles.
	Params sgbrt.Params
	// PruneStep is the number of events dropped per EIR iteration
	// (default 10).
	PruneStep int
	// TestFraction is the held-out fraction for model scoring (default
	// 0.25).
	TestFraction float64
	// MinEvents stops EIR when a prune would leave fewer events (default
	// PruneStep, so the loop runs until no full prune is possible). The
	// first model, on every event, is fitted whatever the event count.
	MinEvents int
	// Seed controls the train/test split shuffle.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.PruneStep <= 0 {
		o.PruneStep = DefaultPruneStep
	}
	if o.TestFraction <= 0 || o.TestFraction >= 1 {
		o.TestFraction = DefaultTestFraction
	}
	if o.MinEvents <= 0 {
		o.MinEvents = o.PruneStep
	}
	return o
}

// EventImportance is one ranked event.
type EventImportance struct {
	// Event is the event name.
	Event string
	// Importance is the normalised relative influence in percent; the
	// sum over all events of a model is 100.
	Importance float64
}

// Model is one fitted performance model with its quality and ranking.
type Model struct {
	// Events are the input events, in the caller's column order.
	Events []string
	// Ensemble is the fitted SGBRT model.
	Ensemble *sgbrt.Ensemble
	// TestError is the eq. (14) relative IPC error on the held-out
	// split, in percent.
	TestError float64
	// Ranking lists events by descending importance.
	Ranking []EventImportance

	// d is the split the model was fitted on; FitEventsCtx fits on it
	// again. Nil for a model FitEventsCtx returned.
	d *dataset
}

// FitEventsCtx fits another ensemble on the model's own training split
// over the named events, in the order given: feature j of the result
// is events[j]. It reuses the split and the presorted rows, so the
// result equals FitCtx on those columns re-projected, with the seed
// and test fraction the model was fitted with. The result carries only
// Events and Ensemble: it is neither scored nor ranked.
func (m *Model) FitEventsCtx(ctx context.Context, events []string, params sgbrt.Params) (*Model, error) {
	d := m.d
	if d == nil {
		return nil, errors.New("rank: model has no training split")
	}
	col := make(map[string]int, len(d.events))
	for i, ev := range d.events {
		col[ev] = i
	}
	cols := make([]int, len(events))
	for j, ev := range events {
		c, ok := col[ev]
		if !ok {
			return nil, fmt.Errorf("rank: event %q is not a column of the model's data, or is repeated", ev)
		}
		delete(col, ev)
		cols[j] = c
	}
	ens, err := d.train.FitCtx(ctx, cols, d.trainY, params, nil)
	if err != nil {
		return nil, err
	}
	return &Model{Events: append([]string(nil), events...), Ensemble: ens}, nil
}

// Fit trains one performance model for IPC = perf(e1, ..., en) and
// ranks the events. X has one row per interval and one column per
// event; y is the IPC series.
func Fit(X [][]float64, y []float64, events []string, opts Options) (*Model, error) {
	return FitCtx(context.Background(), X, y, events, opts)
}

// FitCtx is Fit with cooperative cancellation, inherited from the
// underlying sgbrt fit: a done context aborts between boosting stages
// and surfaces as ctx.Err().
func FitCtx(ctx context.Context, X [][]float64, y []float64, events []string, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	d, err := newDataset(X, y, events, opts)
	if err != nil {
		return nil, err
	}
	return d.fit(ctx, d.allColumns(), opts, nil)
}

// dataset is one train/test split of a ranking problem, made once:
// the training rows are presorted for sgbrt, so every model fitted on
// a subset of the events — each EIR round — reuses the same view.
type dataset struct {
	events []string
	train  *sgbrt.Presorted
	trainY []float64
	testX  [][]float64
	testY  []float64
	// testRows and testBuf back the test rows restricted to a round's
	// columns; the model predicts from vectors of just those columns.
	testRows [][]float64
	testBuf  []float64
}

// newDataset validates the problem — rows, targets and one unique
// name per column — splits it, and presorts the training rows.
func newDataset(X [][]float64, y []float64, events []string, opts Options) (*dataset, error) {
	if len(X) == 0 {
		return nil, errors.New("rank: empty training set")
	}
	for i, row := range X {
		if len(row) != len(events) {
			return nil, fmt.Errorf("rank: row %d has %d columns but there are %d event names", i, len(row), len(events))
		}
	}
	seen := make(map[string]int, len(events))
	for i, ev := range events {
		if j, dup := seen[ev]; dup {
			return nil, fmt.Errorf("rank: duplicate event %q (columns %d and %d)", ev, j, i)
		}
		seen[ev] = i
	}
	// Checked at every row before the split: the fit rejects a
	// non-finite target only among the training rows, and a held-out
	// one would turn the model error into NaN.
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("rank: target %d is %v", i, v)
		}
	}
	trainX, trainY, testX, testY, err := split(X, y, opts.TestFraction, opts.Seed)
	if err != nil {
		return nil, err
	}
	train, err := sgbrt.Presort(trainX, opts.Params.Workers)
	if err != nil {
		return nil, err
	}
	return &dataset{
		events: events,
		train:  train, trainY: trainY,
		testX: testX, testY: testY,
		testRows: make([][]float64, len(testX)),
		testBuf:  make([]float64, len(testX)*len(events)),
	}, nil
}

// allColumns lists every column index in order.
func (d *dataset) allColumns() []int {
	cols := make([]int, len(d.events))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// fit trains a model on the columns in cols (ascending column indices)
// and scores it on the held-out rows. prev, when non-nil, is an earlier
// ensemble on d whose provably unchanged leading trees the fit reuses.
func (d *dataset) fit(ctx context.Context, cols []int, opts Options, prev *sgbrt.Ensemble) (*Model, error) {
	ens, err := d.train.FitCtx(ctx, cols, d.trainY, opts.Params, prev)
	if err != nil {
		return nil, err
	}
	testErr, err := ens.MAPE(d.test(cols), d.testY)
	if err != nil {
		return nil, err
	}
	imp := ens.Importances()
	m := &Model{
		Events:    make([]string, len(cols)),
		Ensemble:  ens,
		TestError: testErr,
		Ranking:   make([]EventImportance, len(cols)),
		d:         d,
	}
	for j, c := range cols {
		m.Events[j] = d.events[c]
		m.Ranking[j] = EventImportance{Event: d.events[c], Importance: imp[j]}
	}
	sort.SliceStable(m.Ranking, func(a, b int) bool {
		return m.Ranking[a].Importance > m.Ranking[b].Importance
	})
	return m, nil
}

// test returns the held-out rows restricted to cols. Every column
// selected means the rows as given; otherwise they are gathered into
// the dataset's reused buffer, valid until the next call.
func (d *dataset) test(cols []int) [][]float64 {
	if len(cols) == len(d.events) {
		return d.testX
	}
	k := len(cols)
	for r, row := range d.testX {
		sub := d.testBuf[r*k : (r+1)*k]
		for j, c := range cols {
			sub[j] = row[c]
		}
		d.testRows[r] = sub
	}
	return d.testRows
}

// split shuffles row indices deterministically and carves off the test
// fraction.
func split(X [][]float64, y []float64, frac float64, seed int64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	n := len(X)
	if len(y) != n {
		return nil, nil, nil, nil, fmt.Errorf("rank: %d rows but %d targets", n, len(y))
	}
	nTest := int(float64(n) * frac)
	if nTest < 1 || n-nTest < 2 {
		return nil, nil, nil, nil, fmt.Errorf("rank: %d samples too few for a %.2f test split", n, frac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	for k, i := range idx {
		if k < nTest {
			testX = append(testX, X[i])
			testY = append(testY, y[i])
		} else {
			trainX = append(trainX, X[i])
			trainY = append(trainY, y[i])
		}
	}
	return trainX, trainY, testX, testY, nil
}

// EIRStep records one iteration of event importance refinement.
type EIRStep struct {
	// NumEvents is the input-event count of this step's model.
	NumEvents int
	// TestError is the model's held-out error in percent.
	TestError float64
	// Model is the fitted model of this step.
	Model *Model
	// ReusedTrees counts the leading trees of the step's ensemble
	// carried over unchanged from the previous step's (0 at step 0).
	ReusedTrees int
}

// EIRResult is the outcome of the refinement loop.
type EIRResult struct {
	// Steps holds every iteration, in execution order (descending event
	// count).
	Steps []EIRStep
	// Best indexes the step with the lowest test error — the MAPM.
	Best int
}

// MAPM returns the most accurate performance model found.
func (r *EIRResult) MAPM() *Model { return r.Steps[r.Best].Model }

// Curve returns (numEvents, testError) pairs for plotting Fig. 8.
func (r *EIRResult) Curve() ([]int, []float64) {
	ns := make([]int, len(r.Steps))
	es := make([]float64, len(r.Steps))
	for i, s := range r.Steps {
		ns[i] = s.NumEvents
		es[i] = s.TestError
	}
	return ns, es
}

// EIR runs the refinement loop: fit a model on all events, rank, drop
// the PruneStep least-important events, refit, and repeat while a
// prune leaves at least MinEvents. It returns every step plus the MAPM;
// with too few events for one prune, that is the single first model.
func EIR(X [][]float64, y []float64, events []string, opts Options) (*EIRResult, error) {
	return EIRCtx(context.Background(), X, y, events, opts)
}

// EIRCtx is EIR with cooperative cancellation: the refinement loop
// checks the context between prune rounds (and each fit aborts between
// boosting stages), so a done context surfaces as ctx.Err() within one
// round of work. The train/test split and the presorted training view
// are built once; each round fits on the indices of its surviving
// columns, handing the fit the previous round's ensemble so that it
// copies the leading trees the prune provably leaves unchanged.
func EIRCtx(ctx context.Context, X [][]float64, y []float64, events []string, opts Options) (*EIRResult, error) {
	opts = opts.withDefaults()
	if len(events) == 0 {
		return nil, errors.New("rank: EIR with no events")
	}
	d, err := newDataset(X, y, events, opts)
	if err != nil {
		return nil, err
	}
	cur := d.allColumns()

	res := &EIRResult{}
	var prev *sgbrt.Ensemble
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := d.fit(ctx, cur, opts, prev)
		if err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, EIRStep{
			NumEvents:   len(cur),
			TestError:   m.TestError,
			Model:       m,
			ReusedTrees: m.Ensemble.ReusedTrees(),
		})
		if len(cur)-opts.PruneStep < opts.MinEvents {
			break
		}
		prev = m.Ensemble
		// Drop the PruneStep least important events.
		keep := make(map[string]bool, len(cur)-opts.PruneStep)
		for _, ei := range m.Ranking[:len(cur)-opts.PruneStep] {
			keep[ei.Event] = true
		}
		next := cur[:0]
		for _, c := range cur {
			if keep[events[c]] {
				next = append(next, c)
			}
		}
		cur = next
	}
	for i, s := range res.Steps {
		if s.TestError < res.Steps[res.Best].TestError {
			res.Best = i
		}
	}
	return res, nil
}

// TopK returns the k most important events of the model (fewer if the
// model has fewer events).
func (m *Model) TopK(k int) []EventImportance {
	if k > len(m.Ranking) {
		k = len(m.Ranking)
	}
	return append([]EventImportance(nil), m.Ranking[:k]...)
}
