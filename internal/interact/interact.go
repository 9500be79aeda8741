// Package interact implements CounterMiner's interaction ranker
// (§III-D). For each pair of important events it trains a linear
// regression model of performance on the pair — with every other event
// held at its mean — and takes the residual variance (eq. (12)) as the
// interaction intensity: an additive pair is captured perfectly by the
// linear model, an interacting pair is not. Intensities are normalised
// across pairs into percentages (eq. (13)).
//
// "Performance with all other events at their means" cannot be
// re-measured on demand, so, as in the paper, the fitted SGBRT
// performance model stands in for the machine: it is queried on
// synthetic points that vary only the pair under study.
package interact

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"counterminer/internal/parallel"
	"counterminer/internal/rank"
	"counterminer/internal/regress"
)

// PairScore is one ranked event-pair interaction.
type PairScore struct {
	// A and B are the pair's event names, in the order given.
	A, B string
	// Intensity is the raw residual variance of eq. (12).
	Intensity float64
	// Importance is the normalised share of eq. (13), in percent.
	Importance float64
}

// Key renders the pair as "A-B".
func (p PairScore) Key() string { return p.A + "-" + p.B }

// Basis selects the per-pair model whose residual variance measures
// interaction intensity.
type Basis int

const (
	// BasisANOVA (default) evaluates the performance model on a
	// quantile grid over the pair and removes row and column effects
	// exactly (two-way ANOVA): the remaining sum of squares is the
	// response surface's non-additive — interacting — part. It absorbs
	// arbitrary univariate structure, including the staircase artifacts
	// of a tree-ensemble oracle.
	BasisANOVA Basis = iota
	// BasisAdditive backfits binned partial effects
	// mu + f_a(x_a) + f_b(x_b) on sampled points.
	BasisAdditive
	// BasisLinear is the paper's literal linear regression on
	// (x_a, x_b).
	BasisLinear
	// BasisQuadratic adds squared self-terms to the linear basis.
	BasisQuadratic
)

// Options configures the interaction ranking.
type Options struct {
	// MaxSamples bounds how many observation rows are used per pair
	// (default 200; rows are strided evenly).
	MaxSamples int
	// Basis selects the per-pair null model; the zero value is
	// BasisANOVA, the default.
	Basis Basis
	// Workers bounds how many pairs are scored concurrently; <= 0 uses
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxSamples <= 0 {
		o.MaxSamples = 200
	}
	return o
}

// RankPairs scores every unordered pair among `important` (a subset of
// the model's events) and returns the pairs sorted by descending
// importance. X must have the model's column layout (one column per
// m.Events entry).
func RankPairs(m *rank.Model, X [][]float64, important []string, opts Options) ([]PairScore, error) {
	return RankPairsCtx(context.Background(), m, X, important, opts)
}

// RankPairsCtx is RankPairs with cooperative cancellation: the pair
// pool checks the context between pairs, so a done context aborts
// within one pairwise fit and surfaces as ctx.Err().
func RankPairsCtx(ctx context.Context, m *rank.Model, X [][]float64, important []string, opts Options) ([]PairScore, error) {
	if m == nil || m.Ensemble == nil {
		return nil, errors.New("interact: nil model")
	}
	if len(X) == 0 {
		return nil, errors.New("interact: empty observations")
	}
	if len(important) < 2 {
		return nil, fmt.Errorf("interact: need at least 2 events, got %d", len(important))
	}
	opts = opts.withDefaults()

	colIdx := make(map[string]int, len(m.Events))
	for i, ev := range m.Events {
		colIdx[ev] = i
	}
	for _, ev := range important {
		if _, ok := colIdx[ev]; !ok {
			return nil, fmt.Errorf("interact: event %q not in model", ev)
		}
	}
	if len(X[0]) != len(m.Events) {
		return nil, fmt.Errorf("interact: X has %d columns, model has %d events", len(X[0]), len(m.Events))
	}

	// Column means — the "all other events at their respective means"
	// baseline.
	means := make([]float64, len(m.Events))
	for _, row := range X {
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(len(X))
	}

	// Strided row subset.
	stride := 1
	if len(X) > opts.MaxSamples {
		stride = len(X) / opts.MaxSamples
	}
	var rows [][]float64
	for i := 0; i < len(X); i += stride {
		rows = append(rows, X[i])
	}

	// Per-column quantile grids for the ANOVA basis.
	grids := make(map[int][]float64, len(important))
	if opts.Basis == BasisANOVA {
		for _, ev := range important {
			c := colIdx[ev]
			col := make([]float64, len(rows))
			for i, row := range rows {
				col[i] = row[c]
			}
			grids[c] = quantileGrid(col, anovaGridSize)
		}
	}

	// Enumerate the pairs up front, then score them concurrently: every
	// pairwise fit is independent, each result lands in its own indexed
	// slot, and the normalisation below runs serially in pair order, so
	// the ranking is identical for every worker count.
	type pairIdx struct{ ai, bi int }
	var pairs []pairIdx
	for ai := 0; ai < len(important); ai++ {
		for bi := ai + 1; bi < len(important); bi++ {
			pairs = append(pairs, pairIdx{ai, bi})
		}
	}
	workers := parallel.Workers(opts.Workers)
	// Per-worker scratch: the ANOVA grid's cells, or a point of model
	// dimensionality for the sampled bases.
	scratch := make([][]float64, workers)
	for w := range scratch {
		if opts.Basis == BasisANOVA {
			scratch[w] = make([]float64, anovaGridSize*anovaGridSize)
		} else {
			scratch[w] = append([]float64(nil), means...)
		}
	}
	scores := make([]PairScore, len(pairs))
	err := parallel.ForEachWorkerCtx(ctx, len(pairs), workers, func(w, k int) error {
		a, b := important[pairs[k].ai], important[pairs[k].bi]
		ca, cb := colIdx[a], colIdx[b]

		var v float64
		if opts.Basis == BasisANOVA {
			// Evaluate the performance model on the pair's grid,
			// everything else at its mean, and take the two-way
			// interaction sum of squares.
			iv, err := anovaInteraction(m.Ensemble, scratch[w], means, ca, cb, grids[ca], grids[cb])
			if err != nil {
				return fmt.Errorf("interact: pair %s-%s: %w", a, b, err)
			}
			v = iv
		} else {
			// Query the performance model over the pair's observed
			// joint values, everything else at its mean.
			point := scratch[w]
			xa := make([]float64, len(rows))
			xb := make([]float64, len(rows))
			obs := make([]float64, len(rows))
			for i, row := range rows {
				copy(point, means)
				point[ca] = row[ca]
				point[cb] = row[cb]
				p, err := m.Ensemble.Predict(point)
				if err != nil {
					return err
				}
				xa[i], xb[i] = row[ca], row[cb]
				obs[i] = p
			}
			pred, err := fitPair(xa, xb, obs, opts.Basis)
			if err != nil {
				return fmt.Errorf("interact: pair %s-%s: %w", a, b, err)
			}
			rv, err := regress.ResidualVariance(pred, obs)
			if err != nil {
				return err
			}
			v = rv
		}
		scores[k] = PairScore{A: a, B: b, Intensity: v}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// eq. (13): normalise across pairs.
	total := 0.0
	for _, s := range scores {
		total += s.Intensity
	}
	if total > 0 {
		for i := range scores {
			scores[i].Importance = scores[i].Intensity / total * 100
		}
	}
	sort.SliceStable(scores, func(i, j int) bool {
		return scores[i].Importance > scores[j].Importance
	})
	return scores, nil
}

// fitPair fits the selected additive null model and returns fitted
// values for each observation.
func fitPair(xa, xb, obs []float64, basis Basis) ([]float64, error) {
	switch basis {
	case BasisAdditive:
		return fitAdditive(xa, xb, obs)
	case BasisLinear, BasisQuadratic:
		design := make([][]float64, len(obs))
		for i := range obs {
			if basis == BasisLinear {
				design[i] = []float64{xa[i], xb[i]}
			} else {
				design[i] = []float64{xa[i], xb[i], xa[i] * xa[i], xb[i] * xb[i]}
			}
		}
		lin, err := regress.Fit(design, obs)
		if err != nil {
			return nil, err
		}
		return lin.PredictAll(design)
	default:
		return nil, fmt.Errorf("interact: unknown basis %d", basis)
	}
}

// TopK returns the k strongest interactions (fewer if fewer exist).
func TopK(scores []PairScore, k int) []PairScore {
	if k > len(scores) {
		k = len(scores)
	}
	return append([]PairScore(nil), scores[:k]...)
}

// ContainsEvent reports whether the pair involves the named event.
func (p PairScore) ContainsEvent(ev string) bool {
	return p.A == ev || p.B == ev
}
