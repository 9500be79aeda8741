// Package sgbrt implements Stochastic Gradient Boosted Regression Trees
// (Friedman 2002), the ensemble learner CounterMiner uses to model IPC
// as a function of event values (§III-C). It also implements the
// relative-influence event importance of eq. (10)/(11): the importance
// of a feature in one tree is the sum of squared improvements over all
// splits on that feature, averaged across the ensemble and normalised
// to percentages.
//
// Training runs over a Presorted matrix: the rows are validated,
// transposed to column-major storage and every column's row order is
// sorted once, so an ensemble — or a sequence of ensembles over
// shrinking column subsets, as in EIR — never sorts again. Each tree
// grows level-synchronously. Per depth, one serial pass partitions
// feature 0's order and sums every node's targets; one feature-parallel
// phase stably partitions each feature's order under the previous
// level's splits (branch-free, on byte side flags) and scans it for the
// best split of every node of the level; and a serial reduce picks each
// node's split in ascending feature order. A fit runs that phase, and
// its per-stage prediction update, on one resident helper team
// (parallel.Team) that lives as long as the fit. Equal-gain splits go
// to the lowest feature index, then the lowest threshold, so the
// induced tree is identical for every worker count. Nodes are stored
// in depth-first preorder. A fit handed an earlier fit on more of the
// columns copies that fit's leading trees wherever the dropped columns
// provably change nothing (Presorted.FitCtx), which is what makes EIR
// rounds cheap.
package sgbrt

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"counterminer/internal/parallel"
)

// gainEpsilon is the minimum gain margin for one split candidate to
// beat another; candidates within it are ties and lose to the earlier
// (lower-threshold, then lower-feature-index) candidate.
const gainEpsilon = 1e-12

// node is one node of a CART regression tree stored in a flat slice.
type node struct {
	// feature is the split feature index, or -1 for a leaf.
	feature int
	// threshold sends x[feature] <= threshold left, otherwise right.
	threshold float64
	// left and right index the children in Tree.nodes (leaves: -1).
	left, right int
	// value is the leaf prediction (mean of targets in the region).
	value float64
	// improvement is the squared-error reduction achieved by this
	// node's split (0 for leaves), the P²(k) of eq. (10).
	improvement float64
	// samples is the number of training rows that reached the node.
	samples int
}

// Tree is one CART regression tree.
type Tree struct {
	nodes []node
	// nFeatures is the expected input dimensionality.
	nFeatures int
	// stable says every split won its node by more than gainEpsilon
	// over each candidate of an earlier feature and passed the MinLeaf
	// recount, so growing the tree again on fewer features that keep
	// its split features picks the same splits (see pickSplit). It is
	// not serialized: a loaded tree is never reused.
	stable bool
}

// TreeParams controls tree induction.
type TreeParams struct {
	// MaxDepth limits tree depth (a stump has depth 1). Values <= 0
	// default to 3, a common boosting depth.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// FeatureMask, when non-nil, restricts splits to features with
	// mask[f] == true (per-tree column subsampling).
	FeatureMask []bool
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 1
	}
	return p
}

// Presorted is a validated, column-major copy of a training matrix
// with every column's row order sorted once. Ensembles fit on any
// subset of its columns (Presorted.FitCtx) without transposing or
// sorting again. It is read-only after Presort and safe to share
// between concurrent fits.
type Presorted struct {
	// cols[f][row] is the value of feature f in training row row.
	cols [][]float64
	// orders[f] lists every row id in ascending order of cols[f].
	orders [][]int32
}

// Presort validates X — non-empty, rectangular, every value finite —
// transposes it and sorts each column once, on at most workers
// goroutines (<= 0: GOMAXPROCS). The sorted orders do not depend on the
// worker count.
func Presort(X [][]float64, workers int) (*Presorted, error) {
	n := len(X)
	if n == 0 {
		return nil, errors.New("sgbrt: empty training set")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("sgbrt: %d rows exceed the row-index range", n)
	}
	nf := len(X[0])
	if nf == 0 {
		return nil, errors.New("sgbrt: training rows have no features")
	}
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("sgbrt: ragged row %d", i)
		}
		if !validRow(row) {
			return nil, fmt.Errorf("sgbrt: row %d contains NaN/Inf", i)
		}
	}
	ps := &Presorted{cols: make([][]float64, nf), orders: make([][]int32, nf)}
	buf := make([]float64, nf*n)
	for f := range ps.cols {
		ps.cols[f] = buf[f*n : (f+1)*n]
	}
	for i, row := range X {
		for f, v := range row {
			ps.cols[f][i] = v
		}
	}
	idx := make([]int32, nf*n)
	parallel.ForEach(nf, workers, func(f int) error {
		o := idx[f*n : (f+1)*n]
		for i := range o {
			o[i] = int32(i)
		}
		col := ps.cols[f]
		// Every value is finite, so cmp.Compare is negative exactly
		// when col[a] < col[b].
		slices.SortFunc(o, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		ps.orders[f] = o
		return nil
	})
	return ps, nil
}

// builder grows trees over the columns of one fit, reusing every
// induction buffer across levels and trees, so fitting a tree allocates
// only its node slice.
type builder struct {
	cols [][]float64 // cols[f][row] of the fitted features
	full [][]int32   // full[f]: every row, ascending by cols[f]; never written
	y    []float64   // fit target, indexed by row
	p    TreeParams
	// team runs the level fan-outs; the induced tree is identical for
	// every team size.
	team *parallel.Team
	// inv[k] = 1/k for k in [1, rows] and rinv[j] = 1/(rows−j) for j
	// in [0, rows): the reciprocals behind scanFeature's division
	// screen, ascending for the left side's count and descending for
	// the right side's.
	inv, rinv []float64

	// orders holds, per feature, the working row order of the tree
	// being grown: the sample's rows, stably partitioned level by level
	// so every node's rows form one contiguous segment, sorted by the
	// feature. Each level partitions spare's orders into orders after
	// swapping the two.
	orders, spare [][]int32
	// keep flags the rows of the tree's sample (1 = in the sample).
	keep []uint8
	// right flags, per row, the side of the split its node took at the
	// previous level (1 = right). Nodes of one level own disjoint rows,
	// so one array serves the whole level.
	right []uint8
	// active lists, ascending, the features the tree may split on.
	active []int
	// level holds the nodes of the depth being grown, children of one
	// parent adjacent and left first; next collects their children.
	level, next []segment
	// cands[k*len(cols)+f] is feature f's best split of level node k.
	cands []splitCand
	// nodes collects the tree in level order before renumbering.
	nodes []node
	// stable becomes the tree's Tree.stable.
	stable bool
}

// segment is one node of a level: its rows are [lo, hi) of every
// active feature's working order.
type segment struct {
	lo, hi int
	// sum and sq are the node's target sum and sum of squares,
	// accumulated in feature 0's order; sse is its squared error.
	sum, sq, sse float64
	// id indexes the node in builder.nodes; parent indexes its parent
	// (-1 at the root) and isLeft says which child it is.
	id, parent int
	isLeft     bool
	// open says the node may split: depth and MinLeaf allow it.
	open bool
}

// splitCand is one feature's best split of a node.
type splitCand struct {
	gain float64
	thr  float64
	ok   bool
}

// newBuilder sizes all working buffers for len(y) rows and len(cols)
// features; full[f] must list every row in ascending order of cols[f].
// The level fan-outs run on team.
func newBuilder(cols [][]float64, full [][]int32, y []float64, p TreeParams, team *parallel.Team) *builder {
	p = p.withDefaults()
	n, nf := len(y), len(cols)
	b := &builder{cols: cols, full: full, y: y, p: p, team: team}
	b.inv, b.rinv = make([]float64, n+1), make([]float64, n)
	for k := 1; k <= n; k++ {
		b.inv[k] = 1 / float64(k)
		b.rinv[n-k] = b.inv[k]
	}
	buf := make([]int32, 2*nf*n)
	b.orders, b.spare = make([][]int32, nf), make([][]int32, nf)
	for f := range b.orders {
		b.orders[f] = buf[2*f*n : (2*f+1)*n]
		b.spare[f] = buf[(2*f+1)*n : (2*f+2)*n]
	}
	b.keep = make([]uint8, n)
	b.right = make([]uint8, n)
	b.active = make([]int, 0, nf)
	return b
}

// build grows one tree on the rows listed in sample, one level at a
// time, and returns it with nodes in depth-first preorder.
func (b *builder) build(sample []int) (*Tree, error) {
	clear(b.keep)
	for _, i := range sample {
		b.keep[i] = 1
	}
	n := filterInto(b.orders[0], b.full[0], b.keep)
	if n == 0 {
		return nil, errors.New("sgbrt: empty sample index")
	}
	b.active = b.active[:0]
	for f := range b.cols {
		if b.p.FeatureMask == nil || b.p.FeatureMask[f] {
			b.active = append(b.active, f)
		}
	}
	b.nodes = b.nodes[:0]
	b.stable = true
	b.level = append(b.level[:0], segment{lo: 0, hi: n, parent: -1})
	for depth := 1; len(b.level) > 0; depth++ {
		if depth > 1 {
			b.orders, b.spare = b.spare, b.orders
			b.partition(0)
		}
		if b.open(depth) == 0 {
			break
		}
		b.scan(depth == 1)
		b.reduce()
		b.level, b.next = b.next, b.level[:0]
	}
	t := &Tree{nFeatures: len(b.cols), nodes: make([]node, 0, len(b.nodes)), stable: b.stable}
	b.emit(t, 0)
	return t, nil
}

// open sums every node of the level over feature 0's order, records it
// in level order, links it to its parent, and returns how many nodes
// may split.
func (b *builder) open(depth int) int {
	o := b.orders[0]
	splittable := 0
	for k := range b.level {
		s := &b.level[k]
		sum, sq := 0.0, 0.0
		for _, i := range o[s.lo:s.hi] {
			yi := b.y[i]
			sum += yi
			sq += yi * yi
		}
		cnt := s.hi - s.lo
		s.sum, s.sq = sum, sq
		s.id = len(b.nodes)
		b.nodes = append(b.nodes, node{
			feature: -1, left: -1, right: -1,
			value: sum / float64(cnt), samples: cnt,
		})
		if s.parent >= 0 {
			if s.isLeft {
				b.nodes[s.parent].left = s.id
			} else {
				b.nodes[s.parent].right = s.id
			}
		}
		s.open = depth <= b.p.MaxDepth && cnt >= 2*b.p.MinLeaf
		if s.open {
			s.sse = sq - sum*sum/float64(cnt)
			splittable++
		}
	}
	return splittable
}

// scan is the level's parallel phase: one task per active feature
// (scanActive), run on the team.
func (b *builder) scan(root bool) {
	if need := len(b.level) * len(b.cols); cap(b.cands) < need {
		b.cands = make([]splitCand, need)
	} else {
		b.cands = b.cands[:need]
	}
	b.team.Run(len(b.active), func(k int) { b.scanActive(k, root) })
}

// scanActive is the level task of the k-th active feature: it brings
// the feature's order up to this level — projecting the sample at the
// root, partitioning under the previous level's splits below it;
// feature 0's order is already current — and scans it for the
// feature's best split of every open node.
func (b *builder) scanActive(k int, root bool) {
	f, nf := b.active[k], len(b.cols)
	if f != 0 {
		if root {
			filterInto(b.orders[f], b.full[f], b.keep)
		} else {
			b.partition(f)
		}
	}
	col, o := b.cols[f], b.orders[f]
	for k := range b.level {
		s := &b.level[k]
		if !s.open {
			continue
		}
		b.cands[k*nf+f] = scanFeature(col, b.y, o[s.lo:s.hi], s.sum, s.sq, s.sse, b.p.MinLeaf, b.inv, b.rinv)
	}
}

// reduce picks every open node's split (pickSplit), flags each of the
// node's rows with its side, and queues the children when both meet
// MinLeaf. A split that is not stable, or that fails the MinLeaf
// recount and leaves the node a leaf, makes the tree unstable.
func (b *builder) reduce() {
	nf := len(b.cols)
	for k := range b.level {
		s := &b.level[k]
		if !s.open {
			continue
		}
		feat, best, stable := pickSplit(b.cands[k*nf:(k+1)*nf], b.active)
		if !best.ok {
			continue
		}
		b.stable = b.stable && stable
		col := b.cols[feat]
		nl := 0
		for _, i := range b.orders[feat][s.lo:s.hi] {
			var r uint8
			if !(col[i] <= best.thr) {
				r = 1
			}
			b.right[i] = r
			nl += 1 - int(r)
		}
		if nl < b.p.MinLeaf || (s.hi-s.lo)-nl < b.p.MinLeaf {
			b.stable = false
			continue
		}
		nd := &b.nodes[s.id]
		nd.feature, nd.threshold, nd.improvement = feat, best.thr, best.gain
		b.next = append(b.next,
			segment{lo: s.lo, hi: s.lo + nl, parent: s.id, isLeft: true},
			segment{lo: s.lo + nl, hi: s.hi, parent: s.id})
	}
}

// pickSplit picks a node's split from cands, indexed by feature, over
// the features of active in ascending order: the first ok candidate,
// replaced only by a later one whose gain is more than gainEpsilon
// higher. stable reports that the winner also beats every ok candidate
// of an earlier feature by more than gainEpsilon. Then the pick is the
// same over any subset of the features that keeps the winner: every
// earlier candidate it meets loses to it, and no later one beat it
// over the full set. Without the rule a near-tie chain breaks that:
// gains a=1, b=1+0.6e-12, c=1+1.2e-12 pick c, but b without a. With no
// ok candidate, best.ok is false and stable is true.
func pickSplit(cands []splitCand, active []int) (feat int, best splitCand, stable bool) {
	// rival is the highest gain among the ok candidates before the
	// winner, seen among those so far.
	rival, seen := math.Inf(-1), math.Inf(-1)
	for _, f := range active {
		c := cands[f]
		if !c.ok {
			continue
		}
		if !best.ok || c.gain > best.gain+gainEpsilon {
			best, feat, rival = c, f, seen
		}
		seen = math.Max(seen, c.gain)
	}
	return feat, best, !best.ok || best.gain > rival+gainEpsilon
}

// remapped returns a copy of t over nFeatures features with split
// feature f renumbered to remap[f], or nil when t is not stable or
// splits on a feature remap drops (-1).
func (t *Tree) remapped(remap []int, nFeatures int) *Tree {
	if !t.stable {
		return nil
	}
	c := &Tree{nodes: append([]node(nil), t.nodes...), nFeatures: nFeatures, stable: true}
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.feature < 0 {
			continue
		}
		if nd.feature = remap[nd.feature]; nd.feature < 0 {
			return nil
		}
	}
	return c
}

// partition brings feature f's order from spare down to this level:
// each pair of sibling segments is its parent's rows, stably split into
// the left child's rows followed by the right child's.
func (b *builder) partition(f int) {
	src, dst := b.spare[f], b.orders[f]
	for k := 0; k+1 < len(b.level); k += 2 {
		l, r := b.level[k], b.level[k+1]
		partitionInto(dst[l.lo:r.hi], src[l.lo:r.hi], l.hi-l.lo, b.right)
	}
}

// partitionInto stably copies the rows of src to dst: the nl rows with
// right[i] == 0 first, then the rows with right[i] == 1. Each row's
// destination is selected arithmetically from the flag, so the loop has
// no data-dependent branch.
func partitionInto(dst, src []int32, nl int, right []uint8) {
	l, r := 0, nl
	for _, i := range src {
		s := int(right[i])
		dst[l+(r-l)*s] = i
		l += 1 - s
		r += s
	}
}

// filterInto copies the rows of src flagged in keep to the front of dst,
// preserving their order, and returns how many it copied. It writes
// every row and advances the cursor by the flag, so like partitionInto
// it has no data-dependent branch. dst must be at least len(src) long.
func filterInto(dst, src []int32, keep []uint8) int {
	k := 0
	for _, i := range src {
		dst[k] = i
		k += int(keep[i])
	}
	return k
}

// emit appends node i of the level-ordered tree and its subtree to t in
// depth-first preorder (left before right) and returns its new index.
func (b *builder) emit(t *Tree, i int) int {
	self := len(t.nodes)
	nd := b.nodes[i]
	t.nodes = append(t.nodes, nd)
	if nd.feature >= 0 {
		l := b.emit(t, nd.left)
		r := b.emit(t, nd.right)
		t.nodes[self].left, t.nodes[self].right = l, r
	}
	return self
}

// scanFeature finds one feature's best split over a node's segment of
// the feature's sorted order. A candidate must beat the running best by
// more than gainEpsilon, so near-equal gains keep the earlier — lower —
// threshold. inv[k] must hold 1/k for k in [1, len(order)), rinv[j]
// must hold 1/(len(rinv)−j) for j in [0, len(rinv)) with len(rinv) at
// least len(order), and minLeaf must be at least 1.
//
// Division screen. The exact gain of a candidate is
//
//	gain = parentSSE − ((leftSq − L²/nl) + (rightSq − R²/nr))
//
// with L, R the side sums. Each candidate is first scored as
// approx = L²·inv[nl] + R²·inv[nr] − base, where base = totalSq −
// parentSSE, which equals gain in exact arithmetic, and rejected when
// approx + margin <= best + gainEpsilon. Only a survivor pays for the
// two divisions, and only the exact gain is compared against the best,
// so every decision is made on the exact value. With u = 2⁻⁵³,
// S = totalSq and P = |parentSSE|, |gain − approx| is at most:
//
//   - 3u·(L²/nl + R²/nr) ≤ 3u·S from the two reciprocal products,
//     each rounding twice where a quotient rounds once (by
//     Cauchy–Schwarz L²/nl ≤ leftSq and R²/nr ≤ rightSq);
//   - u·S for the sum of the two products;
//   - u·(3S + P) for the four roundings of the exact expression;
//   - u·S each for rightSq = totalSq − leftSq and for base;
//
// up to factors 1 + O(n·u) from the accumulated sums, so 9u·S + u·P
// in all. Rounding best + gainEpsilon + base − margin adds at most
// 2u·(S + P) + u·margin. margin = 64u·(S + P) covers the 11u·S + 3u·P
// total with room to spare: a rejected candidate's exact gain cannot
// beat the running best, and the scan returns bit for bit what a
// division-only scan returns. The bound assumes no overflow; past
// S = MaxFloat64/16 the margin is +Inf, which disables the screen (a
// NaN or −Inf bar rejects nothing).
//
// Check order. A candidate is kept only if it leaves minLeaf rows on
// each side, passes the screen, and splits between two distinct
// feature values. The positions that break MinLeaf are skipped by the
// loop bounds, the screen comes next, and the two feature values are
// gathered and compared only for the few positions it passes. None of
// the three checks has a side effect and only a kept candidate moves
// the running best, so any order keeps the same candidates, in the
// same order, and returns the same split.
func scanFeature(col, y []float64, order []int32, totalSum, totalSq, parentSSE float64, minLeaf int, inv, rinv []float64) splitCand {
	n := len(order)
	var c splitCand
	// The split after position k leaves k+1 rows on the left and
	// n-k-1 on the right; both meet minLeaf for k in [first, last].
	first, last := minLeaf-1, n-1-minLeaf
	if first > last {
		return c
	}
	margin := 64 * 0x1p-53 * (totalSq + math.Abs(parentSSE))
	if !(totalSq <= math.MaxFloat64/16) {
		margin = math.Inf(1)
	}
	base := totalSq - parentSSE
	// bar is best + gainEpsilon + base − margin: a candidate whose
	// reciprocal score L²/nl + R²/nr does not exceed it cannot win.
	bar := (c.gain + gainEpsilon + base) - margin
	leftSum, leftSq := 0.0, 0.0
	for _, i := range order[:first] {
		yi := y[i]
		leftSum += yi
		leftSq += yi * yi
	}
	// For the split after position first+k, invL[k] and invR[k] are
	// the reciprocals of its side counts, k+first+1 and n-first-1-k:
	// both tables are read at k, and every slice below has length m.
	seg := order[first : last+1]
	m := len(seg)
	invL := inv[first+1 : last+2][:m]
	r0 := len(rinv) - (n - 1 - first)
	invR := rinv[r0 : r0+m]
	for k := 0; k < m; k++ {
		// Advance to the next position the screen passes. The loop does
		// nothing else, so its few live values stay in registers. Its
		// unsigned bound proves every index in range, so the only
		// bounds check left is the y[seg[k]] gather.
		var rightSum float64
		for ; uint(k) < uint(m); k++ {
			yi := y[seg[k]]
			leftSum += yi
			leftSq += yi * yi
			rightSum = totalSum - leftSum
			if !(leftSum*leftSum*invL[k]+rightSum*rightSum*invR[k] <= bar) {
				break
			}
		}
		if k == m {
			break
		}
		pos := first + k
		cur, next := col[seg[k]], col[order[pos+1]]
		// Can't split between equal feature values.
		if cur == next {
			continue
		}
		nl, nr := pos+1, n-pos-1
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) +
			(rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if gain > c.gain+gainEpsilon {
			c.gain = gain
			c.thr = (cur + next) / 2
			c.ok = true
			bar = (c.gain + gainEpsilon + base) - margin
		}
	}
	return c
}

// Predict returns the tree's prediction for one feature vector.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != t.nFeatures {
		return 0, fmt.Errorf("sgbrt: predict with %d features, tree has %d", len(x), t.nFeatures)
	}
	return t.predictUnchecked(x), nil
}

// predictUnchecked is the internal fast path shared by the boosting
// stage updates and the bulk scorers: it assumes len(x) == t.nFeatures.
func (t *Tree) predictUnchecked(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// predictRow traverses the tree for one training row of the
// column-major view, avoiding any per-row vector assembly.
func (t *Tree) predictRow(cols [][]float64, row int) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if cols[nd.feature][row] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Depth returns the maximum depth of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int {
	var walk func(i, d int) int
	walk = func(i, d int) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return d
		}
		l := walk(nd.left, d+1)
		r := walk(nd.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 1)
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			n++
		}
	}
	return n
}

// featureImportance accumulates per-feature squared improvements —
// I²_j(T) of eq. (10) — into imp, which must have length nFeatures.
func (t *Tree) featureImportance(imp []float64) {
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.feature >= 0 {
			imp[nd.feature] += nd.improvement
		}
	}
}

// guard against NaN thresholds sneaking in from pathological inputs.
func validRow(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
