package sgbrt

import (
	"errors"
	"math/rand"
	"sort"

	"counterminer/internal/parallel"
)

// This file keeps the depth-first tree builder and boosting loop the
// level-synchronous builder replaced, unchanged apart from names, as the
// oracle the production code must match bit for bit (oracle_test.go).
// Each node's split search and partition fan out to the pool on their
// own; every row order is a separate []int; the best split is chosen
// with exact divisions only.

// refParallelNodeThreshold is the minimum segment-rows × features
// product before a node's split search and partition fan out.
const refParallelNodeThreshold = 4096

// refBuilder grows one tree depth-first over column-major data.
type refBuilder struct {
	cols    [][]float64
	y       []float64
	p       TreeParams
	workers int

	orders  [][]int
	scratch [][]int
	goLeft  []bool
	cands   []splitCand
}

func refToColumns(X [][]float64) [][]float64 {
	n, nf := len(X), len(X[0])
	buf := make([]float64, nf*n)
	cols := make([][]float64, nf)
	for f := range cols {
		cols[f] = buf[f*n : (f+1)*n]
	}
	for i, row := range X {
		for f, v := range row {
			cols[f][i] = v
		}
	}
	return cols
}

func refSortOrders(cols [][]float64, n int) [][]int {
	orders := make([][]int, len(cols))
	for f, col := range cols {
		o := make([]int, n)
		for i := range o {
			o[i] = i
		}
		sort.Slice(o, func(a, b int) bool { return col[o[a]] < col[o[b]] })
		orders[f] = o
	}
	return orders
}

func newRefBuilder(cols [][]float64, y []float64, p TreeParams, workers int) *refBuilder {
	p = p.withDefaults()
	n, nf := len(y), len(cols)
	workers = parallel.Workers(workers)
	b := &refBuilder{cols: cols, y: y, p: p, workers: workers}
	buf := make([]int, nf*n)
	b.orders = make([][]int, nf)
	for f := range b.orders {
		b.orders[f] = buf[f*n : f*n : (f+1)*n]
	}
	b.scratch = make([][]int, workers)
	for w := range b.scratch {
		b.scratch[w] = make([]int, n)
	}
	b.goLeft = make([]bool, n)
	b.cands = make([]splitCand, nf)
	return b
}

func (b *refBuilder) load(orders [][]int) {
	for f, o := range orders {
		b.orders[f] = append(b.orders[f][:0], o...)
	}
}

func (b *refBuilder) loadFiltered(full [][]int, keep []bool) {
	fill := func(f int) {
		dst := b.orders[f][:0]
		for _, i := range full[f] {
			if keep[i] {
				dst = append(dst, i)
			}
		}
		b.orders[f] = dst
	}
	if b.workers > 1 && len(full) > 1 {
		parallel.ForEach(len(full), b.workers, func(f int) error { fill(f); return nil })
	} else {
		for f := range full {
			fill(f)
		}
	}
}

func (b *refBuilder) build() (*Tree, error) {
	if len(b.orders) == 0 || len(b.orders[0]) == 0 {
		return nil, errors.New("sgbrt: empty sample index")
	}
	t := &Tree{nFeatures: len(b.cols)}
	b.grow(t, 0, len(b.orders[0]), 1)
	return t, nil
}

func (b *refBuilder) grow(t *Tree, lo, hi, depth int) int {
	seg := b.orders[0][lo:hi]
	sum := 0.0
	for _, i := range seg {
		sum += b.y[i]
	}
	mean := sum / float64(len(seg))

	self := len(t.nodes)
	t.nodes = append(t.nodes, node{
		feature: -1, left: -1, right: -1,
		value: mean, samples: len(seg),
	})

	if depth > b.p.MaxDepth || len(seg) < 2*b.p.MinLeaf {
		return self
	}
	feat, thr, improvement, ok := b.bestSplit(lo, hi)
	if !ok {
		return self
	}
	nl := b.partition(lo, hi, feat, thr)
	if nl < b.p.MinLeaf || (hi-lo)-nl < b.p.MinLeaf {
		return self
	}
	l := b.grow(t, lo, lo+nl, depth+1)
	r := b.grow(t, lo+nl, hi, depth+1)
	t.nodes[self].feature = feat
	t.nodes[self].threshold = thr
	t.nodes[self].left = l
	t.nodes[self].right = r
	t.nodes[self].improvement = improvement
	return self
}

func (b *refBuilder) bestSplit(lo, hi int) (feat int, thr, improvement float64, ok bool) {
	n := hi - lo
	if n < 2 {
		return 0, 0, 0, false
	}
	totalSum, totalSq := 0.0, 0.0
	for _, i := range b.orders[0][lo:hi] {
		yi := b.y[i]
		totalSum += yi
		totalSq += yi * yi
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	nf := len(b.cols)
	scan := func(f int) {
		if b.p.FeatureMask != nil && !b.p.FeatureMask[f] {
			b.cands[f] = splitCand{}
			return
		}
		b.cands[f] = refScanFeature(b.cols[f], b.y, b.orders[f][lo:hi], totalSum, totalSq, parentSSE, b.p.MinLeaf)
	}
	if b.workers > 1 && n*nf >= refParallelNodeThreshold {
		parallel.ForEach(nf, b.workers, func(f int) error { scan(f); return nil })
	} else {
		for f := 0; f < nf; f++ {
			scan(f)
		}
	}

	var best splitCand
	bestFeat := 0
	for f := 0; f < nf; f++ {
		c := b.cands[f]
		if !c.ok {
			continue
		}
		if !best.ok || c.gain > best.gain+gainEpsilon {
			best, bestFeat = c, f
		}
	}
	if !best.ok {
		return 0, 0, 0, false
	}
	return bestFeat, best.thr, best.gain, true
}

func refScanFeature(col, y []float64, order []int, totalSum, totalSq, parentSSE float64, minLeaf int) splitCand {
	n := len(order)
	var c splitCand
	leftSum, leftSq := 0.0, 0.0
	for k := 0; k < n-1; k++ {
		i := order[k]
		yi := y[i]
		leftSum += yi
		leftSq += yi * yi
		v := col[i]
		if v == col[order[k+1]] {
			continue
		}
		nl, nr := k+1, n-k-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) +
			(rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if gain > c.gain+gainEpsilon {
			c.gain = gain
			c.thr = (v + col[order[k+1]]) / 2
			c.ok = true
		}
	}
	return c
}

func (b *refBuilder) partition(lo, hi int, feat int, thr float64) int {
	col := b.cols[feat]
	nl := 0
	for _, i := range b.orders[feat][lo:hi] {
		left := col[i] <= thr
		b.goLeft[i] = left
		if left {
			nl++
		}
	}
	part := func(w, f int) {
		o := b.orders[f][lo:hi]
		scratch := b.scratch[w]
		nr, k := 0, 0
		for _, i := range o {
			if b.goLeft[i] {
				o[k] = i
				k++
			} else {
				scratch[nr] = i
				nr++
			}
		}
		copy(o[k:], scratch[:nr])
	}
	nf := len(b.orders)
	if b.workers > 1 && (hi-lo)*nf >= refParallelNodeThreshold {
		parallel.ForEachWorker(nf, b.workers, func(w, f int) error { part(w, f); return nil })
	} else {
		for f := 0; f < nf; f++ {
			part(0, f)
		}
	}
	return nl
}

// refBuildTree fits one tree on the rows of X indexed by idx.
func refBuildTree(X [][]float64, y []float64, idx []int, p TreeParams) (*Tree, error) {
	cols := refToColumns(X)
	full := refSortOrders(cols, len(X))
	keep := make([]bool, len(X))
	for _, i := range idx {
		keep[i] = true
	}
	b := newRefBuilder(cols, y, p, 0)
	b.loadFiltered(full, keep)
	return b.build()
}

// refFit is the boosting loop over the reference builder: the same
// stage schedule, random streams and stage updates as FitCtx.
func refFit(X [][]float64, y []float64, params Params) (*Ensemble, error) {
	n, p := len(X), len(X[0])
	params = params.withDefaults()
	rng := rand.New(rand.NewSource(params.Seed))
	e := &Ensemble{params: params, nFeatures: p}
	for _, t := range y {
		e.base += t
	}
	e.base /= float64(n)
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
	cols := refToColumns(X)
	fullOrders := refSortOrders(cols, n)
	keep := make([]bool, n)
	tb := newRefBuilder(cols, residual, TreeParams{
		MaxDepth: params.MaxDepth,
		MinLeaf:  params.MinLeaf,
	}, params.Workers)
	useColSample := params.ColSample > 0 && params.ColSample < 1
	nCols := 0
	if useColSample {
		nCols = int(params.ColSample * float64(p))
		if nCols < 1 {
			nCols = 1
		}
	}
	colPerm := make([]int, p)
	for i := range colPerm {
		colPerm[i] = i
	}
	mask := make([]bool, p)
	for stage := 0; stage < params.Trees; stage++ {
		if useColSample {
			rng.Shuffle(p, func(a, b int) { colPerm[a], colPerm[b] = colPerm[b], colPerm[a] })
			for i := range mask {
				mask[i] = false
			}
			for _, c := range colPerm[:nCols] {
				mask[c] = true
			}
			tb.p.FeatureMask = mask
		}
		for i := range residual {
			residual[i] = y[i] - F[i]
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := range keep {
			keep[i] = false
		}
		for _, i := range perm[:sampleSize] {
			keep[i] = true
		}
		if sampleSize == n {
			tb.load(fullOrders)
		} else {
			tb.loadFiltered(fullOrders, keep)
		}
		tree, err := tb.build()
		if err != nil {
			return nil, err
		}
		e.trees = append(e.trees, tree)
		for i := 0; i < n; i++ {
			F[i] += params.LearningRate * tree.predictRow(cols, i)
		}
	}
	return e, nil
}
