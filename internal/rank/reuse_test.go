package rank

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"counterminer/internal/sgbrt"
)

// tiedData draws n rows of nf integer-valued events with few levels
// each (one level makes a constant column) and a target of few levels
// driven by the first events, so equal values and equal gains are
// common.
func tiedData(rng *rand.Rand, n, nf int) ([][]float64, []float64, []string) {
	events := make([]string, nf)
	for f := range events {
		events[f] = "TIED_" + strconv.Itoa(f)
	}
	levels := make([]int, nf)
	for f := range levels {
		levels[f] = []int{1, 2, 3, 5}[rng.Intn(4)]
	}
	levels[0], levels[1] = 4, 3
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nf)
		for f := range row {
			row[f] = float64(rng.Intn(levels[f]))
		}
		X[i] = row
		y[i] = 1 + row[0] + 0.5*row[1] + float64(rng.Intn(3))*0.25
	}
	return X, y, events
}

// edited returns a copy of X with edit applied to every row.
func edited(X [][]float64, edit func(row []float64)) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = append([]float64(nil), row...)
		edit(out[i])
	}
	return out
}

// TestEIRReuseMatchesFreshFits: every EIR step, whose fit reuses the
// previous step's provably unchanged trees, equals a fresh fit on the
// step's columns — the same Save bytes, test error and ranking — on
// inputs and parameters that stress the reuse rule.
func TestEIRReuseMatchesFreshFits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y, events := synthData(rng, 400, 5, 35)
	tX, tY, tEvents := tiedData(rng, 400, 40)
	base := sgbrt.Params{Trees: 30, MaxDepth: 3, Seed: 2}
	with := func(f func(*sgbrt.Params)) sgbrt.Params {
		p := base
		f(&p)
		return p
	}
	cases := []struct {
		name   string
		X      [][]float64
		y      []float64
		events []string
		params sgbrt.Params
	}{
		{"informative", X, y, events, base},
		{"tie-heavy integer columns", tX, tY, tEvents, base},
		// Event 3 is a signal; events 2 and 20 repeat it exactly, one
		// before it and one after.
		{"duplicate columns", edited(X, func(r []float64) { r[2], r[20] = r[3], r[3] }), y, events, base},
		{"constant column", edited(X, func(r []float64) { r[6] = 7 }), y, events, base},
		// The first prune drops it, so the next round's node sums
		// accumulate in another column's row order.
		{"constant first column", edited(X, func(r []float64) { r[0] = 7 }), y, events, base},
		{"MinLeaf 3", X, y, events, with(func(p *sgbrt.Params) { p.MinLeaf = 3 })},
		{"Subsample 1", X, y, events, with(func(p *sgbrt.Params) { p.Subsample = 1 })},
		{"Subsample 0.7", X, y, events, with(func(p *sgbrt.Params) { p.Subsample = 0.7 })},
		{"MaxDepth 2", X, y, events, with(func(p *sgbrt.Params) { p.MaxDepth = 2 })},
		{"MaxDepth 5", X, y, events, with(func(p *sgbrt.Params) { p.MaxDepth = 5 })},
		// Column subsampling draws depend on the column count, so no
		// step may reuse a tree.
		{"ColSample 0.5", X, y, events, with(func(p *sgbrt.Params) { p.ColSample = 0.5 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Params: c.params, Seed: 3}
			res, err := EIR(c.X, c.y, c.events, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Steps) != 4 {
				t.Fatalf("%d steps, want 4 (40 events, prune 10)", len(res.Steps))
			}
			d, err := newDataset(c.X, c.y, c.events, opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			column := make(map[string]int, len(c.events))
			for j, ev := range c.events {
				column[ev] = j
			}
			reused := 0
			for k, s := range res.Steps {
				reused += s.ReusedTrees
				switch {
				case k == 0 && s.ReusedTrees != 0:
					t.Errorf("step 0 reused %d trees", s.ReusedTrees)
				case c.params.ColSample > 0 && s.ReusedTrees != 0:
					t.Errorf("step %d reused %d trees under column subsampling", k, s.ReusedTrees)
				}
				cols := make([]int, len(s.Model.Events))
				for j, ev := range s.Model.Events {
					cols[j] = column[ev]
				}
				fresh, err := d.fit(context.Background(), cols, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameModel(t, k, s.Model, fresh)
			}
			if c.params.ColSample == 0 && reused == 0 {
				t.Error("no step reused a tree")
			}
			t.Logf("%d trees reused over %d steps", reused, len(res.Steps))
		})
	}
}

// assertSameModel fails unless got and want have the same ensemble
// bytes, test error and ranking.
func assertSameModel(t *testing.T, step int, got, want *Model) {
	t.Helper()
	var a, b bytes.Buffer
	if err := got.Ensemble.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Ensemble.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("step %d (%d events, %d trees reused): ensemble differs from a fresh fit",
			step, len(got.Events), got.Ensemble.ReusedTrees())
	}
	if got.TestError != want.TestError {
		t.Errorf("step %d: test error %v, fresh fit %v", step, got.TestError, want.TestError)
	}
	if !reflect.DeepEqual(got.Ranking, want.Ranking) {
		t.Errorf("step %d: ranking differs from a fresh fit", step)
	}
}

// TestFitEventsMatchesFitOnProjectedColumns: an ensemble fitted on a
// model's own training split over some of its events, in importance
// order, equals FitCtx on those columns re-projected with the same seed
// — the same tree count and bit-identical predictions on every row —
// for a single fit's model and an EIR MAPM, on continuous and on tied
// data, at 1 and 2 workers.
func TestFitEventsMatchesFitOnProjectedColumns(t *testing.T) {
	// 600 rows put the 10-event fit's subsample × columns past the
	// level-parallel threshold, so at 2 workers it runs on the team.
	rng := rand.New(rand.NewSource(5))
	sX, sY, sEvents := synthData(rng, 600, 5, 25)
	tX, tY, tEvents := tiedData(rng, 600, 30)
	ctx := context.Background()
	for _, data := range []struct {
		name   string
		X      [][]float64
		y      []float64
		events []string
	}{{"synth", sX, sY, sEvents}, {"tied", tX, tY, tEvents}} {
		for _, workers := range []int{1, 2} {
			params := sgbrt.Params{Trees: 20, MaxDepth: 4, Seed: 3, Workers: workers}
			opts := Options{Params: params, PruneStep: 5, Seed: 7}
			fitted, err := FitCtx(ctx, data.X, data.y, data.events, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := EIRCtx(ctx, data.X, data.y, data.events, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name  string
				model *Model
			}{{"fit", fitted}, {"mapm", res.MAPM()}} {
				var names []string
				for _, ei := range m.model.TopK(10) {
					names = append(names, ei.Event)
				}
				iParams := params
				iParams.Trees *= 2
				got, err := m.model.FitEventsCtx(ctx, names, iParams)
				if err != nil {
					t.Fatal(err)
				}
				var subX [][]float64
				idx := make(map[string]int, len(data.events))
				for i, ev := range data.events {
					idx[ev] = i
				}
				for _, row := range data.X {
					sub := make([]float64, len(names))
					for j, ev := range names {
						sub[j] = row[idx[ev]]
					}
					subX = append(subX, sub)
				}
				want, err := FitCtx(ctx, subX, data.y, names, Options{Params: iParams, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				label := data.name + "/" + m.name + "/workers=" + strconv.Itoa(workers)
				if !reflect.DeepEqual(got.Events, names) {
					t.Errorf("%s: events %v, want %v", label, got.Events, names)
				}
				if g, w := got.Ensemble.NumTrees(), want.Ensemble.NumTrees(); g != w {
					t.Errorf("%s: %d trees, a fit on the projected columns has %d", label, g, w)
				}
				for r, row := range subX {
					g, err := got.Ensemble.Predict(row)
					if err != nil {
						t.Fatal(err)
					}
					w, _ := want.Ensemble.Predict(row)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%s: row %d predicts %v, a fit on the projected columns %v", label, r, g, w)
						break
					}
				}
			}
		}
	}
}

// TestFitEventsRejects: FitEventsCtx names only the model's own
// columns, each once, and needs the split a fit left on the model.
func TestFitEventsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y, events := synthData(rng, 120, 3, 3)
	ctx := context.Background()
	m, err := FitCtx(ctx, X, y, events, Options{Params: fastParams})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitEventsCtx(ctx, []string{events[0], "NOPE"}, fastParams); err == nil {
		t.Error("an unknown event should error")
	}
	if _, err := m.FitEventsCtx(ctx, []string{events[0], events[0]}, fastParams); err == nil {
		t.Error("a repeated event should error")
	}
	sub, err := m.FitEventsCtx(ctx, events[:2], fastParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.FitEventsCtx(ctx, events[:2], fastParams); err == nil {
		t.Error("a model without a training split should error")
	}
}
