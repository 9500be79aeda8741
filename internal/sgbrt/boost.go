package sgbrt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"counterminer/internal/parallel"
)

// parallelLevelThreshold is the minimum sample rows × features of a
// fit before it runs on more than one worker: below it a tree level's
// scans take less time than handing them to a helper and waiting for
// it (DESIGN.md §6).
const parallelLevelThreshold = 2048

// Params configures a boosted ensemble. The defaults mirror common
// scikit-learn GradientBoostingRegressor settings, which is what the
// paper used.
type Params struct {
	// Trees is the number of boosting stages (default 200).
	Trees int
	// LearningRate is the shrinkage factor applied to each stage
	// (default 0.1).
	LearningRate float64
	// Subsample is the fraction of rows sampled (without replacement)
	// per stage — the "stochastic" in SGBRT (default 0.7).
	Subsample float64
	// MaxDepth is the per-tree depth limit (default 3).
	MaxDepth int
	// MinLeaf is the per-leaf minimum sample count (default 1).
	MinLeaf int
	// Seed seeds the row subsampler; runs with equal seeds and inputs
	// are deterministic.
	Seed int64
	// Workers bounds fit-time parallelism (split search and stage
	// updates); <= 0 uses GOMAXPROCS. The fitted model is identical
	// for every worker count.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Trees <= 0 {
		p.Trees = 200
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 0.7
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	return p
}

// Ensemble is a fitted SGBRT model.
type Ensemble struct {
	params    Params
	base      float64 // initial prediction F_0 (target mean)
	trees     []*Tree
	nFeatures int

	// The training inputs of a fit, kept so that a later fit on fewer
	// of the columns can reuse this one's leading trees: the matrix, a
	// copy of the targets and a copy of the column list (callers may
	// rewrite theirs in place).
	ps       *Presorted
	y        []float64
	features []int
	// reused counts the leading trees carried over from the previous
	// ensemble handed to Presorted.FitCtx.
	reused int
}

// Fit trains an SGBRT ensemble on X (n rows, p features) and y using
// least-squares gradient boosting: each stage fits a regression tree to
// the current residuals on a random row subsample and is added with
// shrinkage.
func Fit(X [][]float64, y []float64, params Params) (*Ensemble, error) {
	return FitCtx(context.Background(), X, y, params)
}

// FitCtx is Fit with cooperative cancellation: the boosting loop checks
// the context between stages (never mid-tree), so cancel latency is
// bounded by one tree induction, and a done context surfaces as
// ctx.Err() with no partial ensemble.
func FitCtx(ctx context.Context, X [][]float64, y []float64, params Params) (*Ensemble, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("sgbrt: %d rows but %d targets", len(X), len(y))
	}
	ps, err := Presort(X, params.Workers)
	if err != nil {
		return nil, err
	}
	features := make([]int, len(ps.cols))
	for f := range features {
		features[f] = f
	}
	return ps.FitCtx(ctx, features, y, params, nil)
}

// FitCtx trains an ensemble on the columns listed in features: feature
// j of the model is column features[j] of the matrix, so the model
// predicts from vectors holding just those columns, in that order. y
// holds one finite target per row. Cancellation behaves as in the
// package-level FitCtx, and the result equals FitCtx on the matrix of
// the selected columns.
//
// prev, when non-nil, is an earlier fit whose leading trees the fit
// copies instead of growing them wherever that provably changes
// nothing (see reusableTrees); the result is bit-identical to a fit
// with prev nil. A prev that does not qualify is ignored.
func (ps *Presorted) FitCtx(ctx context.Context, features []int, y []float64, params Params, prev *Ensemble) (*Ensemble, error) {
	n := len(ps.orders[0])
	if len(y) != n {
		return nil, fmt.Errorf("sgbrt: %d rows but %d targets", n, len(y))
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sgbrt: target %d is %v", i, v)
		}
	}
	if len(features) == 0 {
		return nil, errors.New("sgbrt: no features to fit")
	}
	cols := make([][]float64, len(features))
	full := make([][]int32, len(features))
	for j, f := range features {
		if f < 0 || f >= len(ps.cols) {
			return nil, fmt.Errorf("sgbrt: feature %d out of range [0,%d)", f, len(ps.cols))
		}
		cols[j], full[j] = ps.cols[f], ps.orders[f]
	}
	p := len(features)
	params = params.withDefaults()
	rng := rand.New(rand.NewSource(params.Seed))

	reuse := ps.reusableTrees(prev, features, y, params)
	e := &Ensemble{
		params: params, nFeatures: p,
		ps: ps, y: append([]float64(nil), y...), features: append([]int(nil), features...),
		reused: len(reuse),
	}
	for _, t := range y {
		e.base += t
	}
	e.base /= float64(n)

	// Current model outputs F(x_i).
	F := make([]float64, n)
	for i := range F {
		F[i] = e.base
	}
	residual := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sampleSize := int(params.Subsample * float64(n))
	if sampleSize < 2 {
		sampleSize = n
	}

	// One team runs every fan-out of the fit, level scans and F updates
	// alike, and stops on every return.
	workers := params.Workers
	if sampleSize*p < parallelLevelThreshold {
		workers = 1
	}
	team := parallel.NewTeam(workers)
	defer team.Close()
	workers = team.Workers()
	// One builder reused for every stage: trees fit the residuals, so
	// the builder's target is the residual buffer updated in place.
	tb := newBuilder(cols, full, residual, TreeParams{
		MaxDepth: params.MaxDepth,
		MinLeaf:  params.MinLeaf,
	}, team)
	for stage := 0; stage < params.Trees; stage++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Stochastic row subsample without replacement. A reused stage
		// draws it too, so the later stages see the same random stream.
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		var tree *Tree
		if stage < len(reuse) {
			tree = reuse[stage]
		} else {
			for i := range residual {
				residual[i] = y[i] - F[i]
			}
			var err error
			if tree, err = tb.build(perm[:sampleSize]); err != nil {
				return nil, err
			}
		}
		e.trees = append(e.trees, tree)
		// Update F on ALL rows (not only the subsample), one chunk per
		// worker. Every row is independent, so chunks update
		// concurrently with no change in the result.
		lr := params.LearningRate
		chunk := (n + workers - 1) / workers
		team.Run(workers, func(c int) {
			for i := c * chunk; i < min((c+1)*chunk, n); i++ {
				F[i] += lr * tree.predictRow(cols, i)
			}
		})
	}
	return e, nil
}

// reusableTrees returns copies, renumbered to features, of the leading
// trees of prev that a fit of features on (ps, y, params) grows exactly
// as prev grew them; none when prev does not qualify. prev qualifies
// when it was fitted on ps with bit-equal targets and equal Params
// apart from Workers, and features keeps prev's first column and a
// subset of the rest in prev's order: node sums accumulate in feature
// 0's row order. Its trees are reused up to the first that is not
// stable or splits on a dropped column. By induction over the stages,
// both fits then hold the same F before each reused stage, so every
// node sees the same rows and, per kept feature, the same candidate,
// and a stable winner wins again among fewer (DESIGN.md §6).
func (ps *Presorted) reusableTrees(prev *Ensemble, features []int, y []float64, params Params) []*Tree {
	if prev == nil || prev.ps != ps {
		return nil
	}
	a, b := prev.params, params
	a.Workers, b.Workers = 0, 0
	if a != b || len(prev.y) != len(y) {
		return nil
	}
	for i, v := range y {
		if math.Float64bits(v) != math.Float64bits(prev.y[i]) {
			return nil
		}
	}
	// remap[j] is the index in features of prev's feature j, -1 when
	// the fit drops it.
	remap := make([]int, len(prev.features))
	k := 0
	for j, f := range prev.features {
		remap[j] = -1
		if k < len(features) && features[k] == f {
			remap[j] = k
			k++
		}
	}
	if k < len(features) || remap[0] != 0 {
		return nil
	}
	var reuse []*Tree
	for _, t := range prev.trees {
		c := t.remapped(remap, len(features))
		if c == nil {
			break
		}
		reuse = append(reuse, c)
	}
	return reuse
}

// ReusedTrees returns how many of the ensemble's leading trees
// Presorted.FitCtx copied from the previous ensemble it was given
// instead of growing them.
func (e *Ensemble) ReusedTrees() int { return e.reused }

// NumTrees returns the number of boosting stages actually fitted.
func (e *Ensemble) NumTrees() int { return len(e.trees) }

// NumFeatures returns the input dimensionality.
func (e *Ensemble) NumFeatures() int { return e.nFeatures }

// Predict evaluates the ensemble on one feature vector.
func (e *Ensemble) Predict(x []float64) (float64, error) {
	if len(x) != e.nFeatures {
		return 0, fmt.Errorf("sgbrt: predict with %d features, model has %d", len(x), e.nFeatures)
	}
	return e.predictUnchecked(x), nil
}

// predictUnchecked sums the stages without re-validating the input
// dimensionality per tree; callers must have checked len(x) once.
func (e *Ensemble) predictUnchecked(x []float64) float64 {
	out := e.base
	for _, t := range e.trees {
		out = e.addStage(out, t.predictUnchecked(x))
	}
	return out
}

// addStage adds one tree's shrunk leaf value to a running prediction.
// Predict and PredictPairGrid both sum their stages through it, so the
// two round the same way.
func (e *Ensemble) addStage(acc, leaf float64) float64 {
	return acc + e.params.LearningRate*leaf
}

// PredictAll evaluates the ensemble on every row of X.
func (e *Ensemble) PredictAll(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	for i, row := range X {
		if len(row) != e.nFeatures {
			return nil, fmt.Errorf("sgbrt: row %d has %d features, model has %d", i, len(row), e.nFeatures)
		}
		out[i] = e.predictUnchecked(row)
	}
	return out, nil
}

// Importances returns the normalised relative influence of every
// feature, eq. (10)/(11): per-tree sums of squared split improvements,
// averaged over trees, scaled so the total is 100. Features never used
// for splitting get 0.
func (e *Ensemble) Importances() []float64 {
	imp := make([]float64, e.nFeatures)
	if len(e.trees) == 0 {
		return imp
	}
	for _, t := range e.trees {
		t.featureImportance(imp)
	}
	total := 0.0
	for i := range imp {
		imp[i] /= float64(len(e.trees))
		total += imp[i]
	}
	if total > 0 {
		for i := range imp {
			imp[i] = imp[i] / total * 100
		}
	}
	return imp
}

// MAPE returns the mean absolute percentage error of the model on
// (X, y), the model-error metric of eq. (14). Rows with y == 0 are
// skipped; if every row is skipped an error is returned.
func (e *Ensemble) MAPE(X [][]float64, y []float64) (float64, error) {
	if len(X) != len(y) {
		return 0, fmt.Errorf("sgbrt: %d rows but %d targets", len(X), len(y))
	}
	sum, n := 0.0, 0
	for i, row := range X {
		if y[i] == 0 {
			continue
		}
		if len(row) != e.nFeatures {
			return 0, fmt.Errorf("sgbrt: row %d has %d features, model has %d", i, len(row), e.nFeatures)
		}
		pred := e.predictUnchecked(row)
		d := (y[i] - pred) / y[i]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0, errors.New("sgbrt: MAPE undefined (all targets zero)")
	}
	return sum / float64(n) * 100, nil
}
