package sgbrt

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"counterminer/internal/parallel"
)

// TestBestSplitTieBreakFeature: two identical feature columns produce
// identical gains for every candidate split; the lowest feature index
// must win regardless of scan order or worker count.
func TestBestSplitTieBreakFeature(t *testing.T) {
	// Feature 1 duplicates feature 0; feature 2 is constant noise-free
	// but uninformative.
	X := [][]float64{
		{0, 0, 7}, {1, 1, 7}, {2, 2, 7}, {3, 3, 7},
	}
	y := []float64{0, 0, 10, 10}
	for _, workers := range []int{1, 8} {
		tree, err := growTree(X, y, allIdx(4), TreeParams{MaxDepth: 1}, workers)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.nodes[0]
		if root.feature != 0 {
			t.Errorf("workers=%d: root split feature = %d, want 0 (lowest index wins ties)", workers, root.feature)
		}
		if root.threshold != 1.5 {
			t.Errorf("workers=%d: root threshold = %v, want 1.5", workers, root.threshold)
		}
	}
}

// TestBestSplitTieBreakThreshold: a symmetric target gives two
// thresholds of one feature the same gain; the lower threshold wins.
func TestBestSplitTieBreakThreshold(t *testing.T) {
	// y = [1,0,0,1] over x = [0,1,2,3]: splitting at 0.5 and at 2.5
	// yield the same gain; 1.5 is strictly worse.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 0, 0, 1}
	tree, err := buildTree(X, y, allIdx(4), TreeParams{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.nodes[0]
	if root.feature != 0 || root.threshold != 0.5 {
		t.Errorf("root split = (feature %d, threshold %v), want (0, 0.5): lowest threshold wins ties",
			root.feature, root.threshold)
	}
}

// TestFitParallelMatchesSerial: the fitted ensemble must be
// bit-identical for any worker count — tree structure, predictions,
// and importances. The fit's 350 sample rows × 12 columns are
// above parallelLevelThreshold, so it runs on a team.
func TestFitParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, p := 500, 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, p)
		for j := range row {
			row[j] = rng.Float64() * 50
		}
		X[i] = row
		y[i] = 2*row[0] - row[1] + row[2]*row[3]/25 + rng.NormFloat64()*0.5
	}
	base := Params{Trees: 25, Seed: 9}

	serial, err := Fit(X, y, withWorkers(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Fit(X, y, withWorkers(base, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par.trees) != len(serial.trees) {
			t.Fatalf("workers=%d: %d trees, serial has %d", workers, len(par.trees), len(serial.trees))
		}
		for k := range par.trees {
			if !reflect.DeepEqual(par.trees[k].nodes, serial.trees[k].nodes) {
				t.Fatalf("workers=%d: tree %d differs from serial", workers, k)
			}
		}
		if !reflect.DeepEqual(par.Importances(), serial.Importances()) {
			t.Errorf("workers=%d: importances differ from serial", workers)
		}
		ps, err1 := serial.PredictAll(X)
		pp, err2 := par.PredictAll(X)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(ps, pp) {
			t.Errorf("workers=%d: predictions differ from serial", workers)
		}
	}
}

func withWorkers(p Params, w int) Params {
	p.Workers = w
	return p
}

// TestBuildTreeOrderedDoesNotMutateOrders guards the presort-once
// contract: every stage of a fit, and every fit of an EIR loop, reads
// the same Presorted columns and orders, so induction must leave them
// intact.
func TestBuildTreeOrderedDoesNotMutateOrders(t *testing.T) {
	X, y := benchMatrix(50, 4)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOrders := make([][]int32, len(ps.orders))
	wantCols := make([][]float64, len(ps.cols))
	for f := range ps.orders {
		wantOrders[f] = append([]int32(nil), ps.orders[f]...)
		wantCols[f] = append([]float64(nil), ps.cols[f]...)
	}
	team := parallel.NewTeam(0)
	defer team.Close()
	if _, err := newBuilder(ps.cols, ps.orders, y, TreeParams{MaxDepth: 4}, team).build(allIdx(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FitCtx(context.Background(), []int{3, 1, 2}, y, Params{Trees: 5, MaxDepth: 4, Seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps.orders, wantOrders) || !reflect.DeepEqual(ps.cols, wantCols) {
		t.Error("induction mutated the presorted view")
	}
}

// stageCountdown is a context whose Err turns to context.Canceled after
// a fixed number of calls. FitCtx checks its context once before each
// stage, so the fit is cancelled at a chosen stage, with its team's
// helpers running.
type stageCountdown struct {
	context.Context
	left atomic.Int32
}

func (c *stageCountdown) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFitCtxCancelStopsTeam cancels fits before the first stage and
// mid-fit: each returns the context's error and no partial ensemble,
// and none of its team's helpers outlives the call.
func TestFitCtxCancelStopsTeam(t *testing.T) {
	X, y := benchMatrix(400, 20)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	features := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	baseline := runtime.NumGoroutine()
	for _, stages := range []int32{0, 1, 7} {
		for _, workers := range []int{2, 8} {
			ctx := &stageCountdown{Context: context.Background()}
			ctx.left.Store(stages)
			e, err := ps.FitCtx(ctx, features, y, Params{Trees: 20, MaxDepth: 4, Seed: 1, Workers: workers}, nil)
			if !errors.Is(err, context.Canceled) || e != nil {
				t.Fatalf("cancel before stage %d, workers=%d: got (%v, %v), want (nil, context.Canceled)", stages, workers, e, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines outlived cancelled fits: baseline %d, now %d", baseline, n)
	}
}

// TestFitOnTeamMatchesSerial fits above parallelLevelThreshold, so
// every level scan and F update runs on a team of the given size, and
// refits on fewer columns from that fit, as EIR does: each ensemble is
// bit-identical to the one-worker fit. It runs the team at any
// GOMAXPROCS, which is what the race soak in scripts/check.sh needs.
func TestFitOnTeamMatchesSerial(t *testing.T) {
	X, y := benchMatrix(400, 16)
	ps, err := Presort(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	kept := []int{0, 1, 2, 3, 5, 6, 8, 10, 13, 15}
	params := Params{Trees: 12, MaxDepth: 4, Seed: 3}
	if n := int(0.7*400) * len(kept); n < parallelLevelThreshold {
		t.Fatalf("the refit's %d sample cells fall below parallelLevelThreshold; it would not run on the team", n)
	}
	fit := func(features []int, workers int, prev *Ensemble) *Ensemble {
		t.Helper()
		e, err := ps.FitCtx(context.Background(), features, y, withWorkers(params, workers), prev)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	serial := fit(all, 1, nil)
	serialKept := fit(kept, 1, nil)
	for _, workers := range []int{2, 8} {
		par := fit(all, workers, nil)
		parKept := fit(kept, workers, par)
		for _, c := range []struct {
			name      string
			got, want *Ensemble
		}{{"full", par, serial}, {"refit", parKept, serialKept}} {
			if len(c.got.trees) != len(c.want.trees) {
				t.Fatalf("workers=%d %s: %d trees, want %d", workers, c.name, len(c.got.trees), len(c.want.trees))
			}
			for k := range c.got.trees {
				if !reflect.DeepEqual(c.got.trees[k].nodes, c.want.trees[k].nodes) {
					t.Fatalf("workers=%d %s: tree %d differs from the one-worker fit", workers, c.name, k)
				}
			}
		}
	}
}
