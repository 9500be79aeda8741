// Package interact implements CounterMiner's interaction ranker
// (§III-D): it scores every pair of important events by how far the
// performance response over the pair is from additive, and normalises
// the intensities across pairs into percentages (eq. (13)).
//
// "Performance with all other events at their means" cannot be
// re-measured on demand, so, as in the paper, the fitted SGBRT
// performance model stands in for the machine: it is queried on
// synthetic points that vary only the pair under study. The paper fits
// a linear regression of performance on the pair and takes its
// residual variance (eq. (12)) as the intensity. This package
// evaluates the model instead on a 12×12 grid of the pair's quantiles
// and removes the row and column effects exactly (a two-way ANOVA):
// the remaining sum of squares is the response surface's non-additive
// — interacting — part. This is the grid form of Friedman and
// Popescu's H-statistic (Predictive Learning via Rule Ensembles, 2008).
// Unlike a linear residual it absorbs any univariate structure, such
// as one event's curvature or the staircase of a tree-ensemble model,
// so a single event's nonlinearity is never scored as interaction.
package interact

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"counterminer/internal/parallel"
	"counterminer/internal/rank"
)

// PairScore is one ranked event-pair interaction.
type PairScore struct {
	// A and B are the pair's event names, in the order given.
	A, B string
	// Intensity is the raw interaction sum of squares over the pair's
	// grid.
	Intensity float64
	// Importance is the normalised share of eq. (13), in percent.
	Importance float64
}

// Key renders the pair as "A-B".
func (p PairScore) Key() string { return p.A + "-" + p.B }

// Options configures the interaction ranking.
type Options struct {
	// Workers bounds how many pairs are scored concurrently; <= 0 uses
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int
}

// maxSamples bounds the rows that set each event's quantile grid. Rows
// are taken at stride len(X)/maxSamples (at least 1), so 200–399 rows
// set each grid once X has 200 or more. Changing this rule moves every
// Analysis.
const maxSamples = 200

// RankPairs scores every unordered pair among `important` (a subset of
// the model's events) and returns the pairs sorted by descending
// importance. X must have the model's column layout (one column per
// m.Events entry).
func RankPairs(m *rank.Model, X [][]float64, important []string, opts Options) ([]PairScore, error) {
	return RankPairsCtx(context.Background(), m, X, important, opts)
}

// RankPairsCtx is RankPairs with cooperative cancellation: the pair
// pool checks the context between pairs, so a done context aborts
// within one pair's grid and surfaces as ctx.Err().
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

	// Per-event quantile grids over a strided row subset.
	stride := max(1, len(X)/maxSamples)
	grids := make([][]float64, len(important))
	for k, ev := range important {
		c := colIdx[ev]
		col := make([]float64, 0, (len(X)+stride-1)/stride)
		for i := 0; i < len(X); i += stride {
			col = append(col, X[i][c])
		}
		grids[k] = quantileGrid(col, anovaGridSize)
	}

	// Enumerate the pairs up front, then score them concurrently: every
	// pair's score is independent, each result lands in its own indexed
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
	// Per-worker scratch for the grid's cells.
	scratch := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = make([]float64, anovaGridSize*anovaGridSize)
	}
	scores := make([]PairScore, len(pairs))
	err := parallel.ForEachWorkerCtx(ctx, len(pairs), workers, func(w, k int) error {
		ai, bi := pairs[k].ai, pairs[k].bi
		a, b := important[ai], important[bi]
		// Evaluate the performance model on the pair's grid,
		// everything else at its mean, and take the two-way
		// interaction sum of squares.
		v, err := anovaInteraction(m.Ensemble, scratch[w], means, colIdx[a], colIdx[b], grids[ai], grids[bi])
		if err != nil {
			return fmt.Errorf("interact: pair %s-%s: %w", a, b, err)
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
