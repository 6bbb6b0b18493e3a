package tree

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
)

// Build mines a decision tree from d with the given configuration.
func Build(d *dataset.Dataset, cfg Config) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.NumTuples() == 0 {
		return nil, fmt.Errorf("no training tuples: %w", ErrEmptyData)
	}
	if d.NumAttrs() == 0 {
		return nil, fmt.Errorf("%w: %w", ErrEmptyData, dataset.ErrNoAttributes)
	}
	cfg = cfg.withDefaults()
	var flipped []bool
	if cfg.Orientation == OrientationCanonical {
		d, flipped = canonicalOrientation(d)
	}
	sp := obs.StartSpan("mine/build")
	root, nodes, leaves := growTree(d, cfg, 0)
	if flipped != nil {
		unflip(root, flipped)
	}
	sp.End()
	if obs.Enabled() {
		obs.Add("tree.builds", 1)
		obs.Add("tree.nodes", nodes)
		obs.Add("tree.leaves", leaves)
	}
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
		Config:     cfg,
	}, nil
}

// growTree grows the subtree over every tuple of d, rooted at depth
// dep, and returns it with its node and leaf counts. d must already be
// in the orientation the tree is mined in. Build grows the whole tree
// through it from depth 0; BuildSharded grows each frontier node it
// materializes through it at that node's depth.
func growTree(d *dataset.Dataset, cfg Config, dep int) (root *Node, nodes, leaves int64) {
	b := newBuilder(d, cfg)
	idx := make([]int, d.NumTuples())
	for i := range idx {
		idx[i] = i
	}
	root = b.grow(b.orders, idx, dep)
	return root, b.numNodes, b.numLeaves
}

// canonicalOrientation returns a view of d in which every attribute
// whose descending class string is lexicographically smaller than its
// ascending one has been negated, plus the per-attribute flip flags.
// Negation reverses the value order while preserving tie blocks, so the
// flipped attribute's ascending class string is exactly the canonical
// descending reading of the original.
func canonicalOrientation(d *dataset.Dataset) (*dataset.Dataset, []bool) {
	flipped := make([]bool, d.NumAttrs())
	var view *dataset.Dataset
	for a := 0; a < d.NumAttrs(); a++ {
		if d.IsCategorical(a) {
			continue // category codes have no order to canonicalize
		}
		asc := runs.ClassStringOf(d, a)
		desc := runs.ClassStringDescendingOf(d, a)
		if !lexLess(desc, asc) {
			continue
		}
		flipped[a] = true
		if view == nil {
			// Shallow copy: only flipped columns are duplicated.
			cp := *d
			cp.Cols = append([][]float64(nil), d.Cols...)
			view = &cp
		}
		col := make([]float64, len(d.Cols[a]))
		for i, v := range d.Cols[a] {
			col[i] = -v
		}
		view.Cols[a] = col
	}
	if view == nil {
		return d, flipped
	}
	return view, flipped
}

// unflip rewrites a tree mined in canonical orientation back into the
// data's own orientation: nodes on flipped attributes negate their
// threshold and swap children ("-v <= t" is "v >= -t").
func unflip(n *Node, flipped []bool) {
	if n == nil || n.Leaf {
		return
	}
	// Multiway (categorical) nodes are never flipped themselves, but
	// their branches may contain flipped numeric splits.
	if !n.Multiway && flipped[n.Attr] {
		n.Threshold = -n.Threshold
		n.Left, n.Right = n.Right, n.Left
	}
	for _, c := range children(n) {
		unflip(c, flipped)
	}
}

type builder struct {
	d   *dataset.Dataset
	cfg Config
	// workers is the resolved fan-out width of the split search.
	workers int
	// orders holds, per numeric attribute, every tuple index sorted by
	// (value, label) — the SPRINT-style presort that lets split search
	// scan attributes without re-sorting at every node. Categorical
	// attributes keep a nil order.
	orders [][]int
	// side is per-tuple scratch for stable list partitioning: the
	// branch index each member of the current node goes to.
	side []int32
	// left and right are class-count scratch for the serial split scan;
	// concurrent scans allocate their own.
	left, right []int
	// numNodes and numLeaves count the grown tree for the observability
	// layer. grow runs on a single goroutine (only split search inside a
	// node fans out), so plain increments suffice.
	numNodes, numLeaves int64
}

// newBuilder presorts the attribute orders once; split search then runs
// in linear time per attribute per node.
func newBuilder(d *dataset.Dataset, cfg Config) *builder {
	b := &builder{
		d:       d,
		cfg:     cfg,
		workers: parallel.ResolveWorkers(cfg.Workers),
		side:    make([]int32, d.NumTuples()),
		left:    make([]int, d.NumClasses()),
		right:   make([]int, d.NumClasses()),
	}
	b.orders = make([][]int, d.NumAttrs())
	for a := range b.orders {
		if d.IsCategorical(a) {
			continue
		}
		order := make([]int, d.NumTuples())
		for i := range order {
			order[i] = i
		}
		col := d.Cols[a]
		labels := d.Labels
		sort.Slice(order, func(x, y int) bool {
			ix, iy := order[x], order[y]
			if col[ix] != col[iy] {
				return col[ix] < col[iy]
			}
			return labels[ix] < labels[iy]
		})
		b.orders[a] = order
	}
	return b
}

// grow recursively builds the subtree over the tuples in idx. lists[a]
// holds the same subset in ascending (value, label) order of numeric
// attribute a; the presort is maintained through stable partitioning, so
// no node ever sorts.
func (b *builder) grow(lists [][]int, idx []int, dep int) *Node {
	counts := make([]int, b.d.NumClasses())
	for _, i := range idx {
		counts[b.d.Labels[i]]++
	}
	b.numNodes++
	node := &Node{Counts: counts, Class: argmax(counts)}
	if b.stop(counts, len(idx), dep) {
		node.Leaf = true
		b.numLeaves++
		return node
	}
	best, ok := b.bestSplit(lists, idx, counts)
	if !ok {
		node.Leaf = true
		b.numLeaves++
		return node
	}
	node.Attr = best.attr
	col := b.d.Cols[best.attr]
	if best.multiway {
		node.Multiway = true
		node.Cats = best.cats
		pos := make(map[int]int32, len(best.cats))
		for i, c := range best.cats {
			pos[c] = int32(i)
		}
		for _, i := range idx {
			b.side[i] = pos[int(col[i])]
		}
		childLists, childIdx := b.partition(lists, idx, len(best.cats))
		node.Branches = make([]*Node, len(best.cats))
		for i := range node.Branches {
			node.Branches[i] = b.grow(childLists[i], childIdx[i], dep+1)
		}
		return node
	}
	node.Threshold = best.threshold
	for _, i := range idx {
		if col[i] <= best.threshold {
			b.side[i] = 0
		} else {
			b.side[i] = 1
		}
	}
	childLists, childIdx := b.partition(lists, idx, 2)
	node.Left = b.grow(childLists[0], childIdx[0], dep+1)
	node.Right = b.grow(childLists[1], childIdx[1], dep+1)
	return node
}

// partition filters idx and every attribute order stably into k children
// according to the branch indices stored in b.side. Stability preserves
// the (value, label) presort within every child.
func (b *builder) partition(lists [][]int, idx []int, k int) (childLists [][][]int, childIdx [][]int) {
	childIdx = make([][]int, k)
	for _, i := range idx {
		s := b.side[i]
		childIdx[s] = append(childIdx[s], i)
	}
	childLists = make([][][]int, k)
	for c := range childLists {
		childLists[c] = make([][]int, len(lists))
	}
	for a, order := range lists {
		if order == nil {
			continue
		}
		for c := range childLists {
			childLists[c][a] = make([]int, 0, len(childIdx[c]))
		}
		for _, i := range order {
			s := b.side[i]
			childLists[s][a] = append(childLists[s][a], i)
		}
	}
	return childLists, childIdx
}

// stop reports whether a node must become a leaf before split search.
func (b *builder) stop(counts []int, n, dep int) bool {
	return stopNode(b.cfg, counts, n, dep)
}

// stopNode is the leaf decision shared by the in-memory and sharded
// builders: too small to split, at the depth limit, or label-pure.
func stopNode(cfg Config, counts []int, n, dep int) bool {
	if n < 2*cfg.MinLeaf {
		return true
	}
	if cfg.MaxDepth > 0 && dep >= cfg.MaxDepth {
		return true
	}
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1 // pure node
}

// midpoint returns the threshold between adjacent distinct values
// lo < hi: their mean, so that lo <= t < hi sends every tuple at lo
// left and every tuple at hi right. The plain mean is kept whenever it
// separates them, which is every pair but two: when lo+hi overflows,
// the halves are added instead, and when lo and hi are adjacent floats
// whose mean rounds up to hi, lo itself is the threshold.
func midpoint(lo, hi float64) float64 {
	t := (lo + hi) / 2
	if math.IsInf(t, 0) {
		t = lo/2 + hi/2
	}
	if t >= hi {
		t = lo
	}
	return t
}

// split describes a candidate split and its tie-breaking features.
type split struct {
	attr      int
	threshold float64
	multiway  bool
	cats      []int // category codes (ascending) of a multiway split
	gain      float64
	sig       []int // canonical child-distribution signature
	boundary  int   // index of the boundary in value order
}

// signature stores the unordered multiset of child class-count vectors
// in canonical (lexicographically sorted) order. The multiset is
// invariant both under anti-monotone mirroring of a numeric attribute
// (which swaps the two children) and under permutation encoding of a
// categorical attribute (which reorders the branches), so tie-breaking
// on it keeps split selection consistent between a data set and its
// encoding.
func (s *split) signature(branches ...[]int) {
	ordered := make([][]int, len(branches))
	copy(ordered, branches)
	sort.Slice(ordered, func(i, j int) bool { return lexLess(ordered[i], ordered[j]) })
	s.sig = s.sig[:0]
	for _, b := range ordered {
		s.sig = append(s.sig, b...)
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// better reports whether s should be preferred over t under the
// deterministic tie-breaking order: higher gain, then lower attribute
// index, then the canonical child-distribution signature (mirror
// invariant), then lower boundary index as the final arbitrary choice.
func (s split) better(t split, eps float64) bool {
	if s.gain > t.gain+eps {
		return true
	}
	if s.gain < t.gain-eps {
		return false
	}
	if s.attr != t.attr {
		return s.attr < t.attr
	}
	if len(s.sig) != len(t.sig) {
		return len(s.sig) < len(t.sig)
	}
	if lexLess(s.sig, t.sig) {
		return true
	}
	if lexLess(t.sig, s.sig) {
		return false
	}
	return s.boundary < t.boundary
}

// bestSplit searches all attributes for the impurity-optimal split.
// Each attribute's candidate search is independent, so at nodes with at
// least ParallelMinRows tuples (and Workers > 1) the attributes are
// evaluated concurrently; the per-attribute winners are then reduced in
// attribute order — the same order the serial loop visits them — so the
// selected split is identical at any worker count.
func (b *builder) bestSplit(lists [][]int, idx []int, counts []int) (split, bool) {
	total := len(idx)
	parentImp := b.cfg.Criterion.Impurity(counts, total)
	m := b.d.NumAttrs()
	if obs.Enabled() {
		start := time.Now()
		defer obs.Since("tree.split_search_ns", start)
		obs.Add("tree.split_scans", int64(m))
	}
	if b.workers > 1 && total >= ParallelMinRows && m > 1 {
		cands := make([]split, m)
		founds := make([]bool, m)
		// fn never returns an error, so ForEach cannot fail.
		_ = parallel.ForEach(context.Background(), m, b.workers, func(a int) error {
			left := make([]int, len(counts))
			right := make([]int, len(counts))
			cands[a], founds[a] = b.attrBest(a, lists[a], idx, counts, parentImp, left, right)
			return nil
		})
		var best split
		found := false
		for a := 0; a < m; a++ {
			if founds[a] && (!found || cands[a].better(best, 1e-12)) {
				best = cands[a]
				found = true
			}
		}
		return best, found
	}
	var best split
	found := false
	for a := 0; a < m; a++ {
		if cand, ok := b.attrBest(a, lists[a], idx, counts, parentImp, b.left, b.right); ok {
			if !found || cand.better(best, 1e-12) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// attrBest returns attribute a's best candidate split over the node's
// tuples, scanning the presorted list once for numeric attributes. left
// and right are class-count scratch owned by the caller.
func (b *builder) attrBest(a int, order []int, idx []int, counts []int, parentImp float64, left, right []int) (split, bool) {
	if b.d.IsCategorical(a) {
		return b.categoricalSplit(idx, counts, a, parentImp)
	}
	total := len(idx)
	col := b.d.Cols[a]
	labels := b.d.Labels
	var best split
	found := false
	for c := range left {
		left[c] = 0
		right[c] = counts[c]
	}
	nLeft := 0
	boundary := 0
	k := 0
	for k < len(order) {
		// Advance over the group of equal values, tracking whether
		// it is label-pure and which label it carries.
		v := col[order[k]]
		groupLabel := labels[order[k]]
		pure := true
		for k < len(order) && col[order[k]] == v {
			l := labels[order[k]]
			if l != groupLabel {
				pure = false
			}
			left[l]++
			right[l]--
			nLeft++
			k++
		}
		if k == len(order) {
			break
		}
		boundary++
		if nLeft < b.cfg.MinLeaf || total-nLeft < b.cfg.MinLeaf {
			continue
		}
		// Lemma 2: a boundary strictly inside a label run — both
		// adjacent groups pure with the same label — can never be
		// optimal, so skip it (unless benchmarking the full scan).
		if !b.cfg.FullSplitScan {
			nextLabel := labels[order[k]]
			if pure && groupLabel == nextLabel && groupPure(col, labels, order, k) {
				continue
			}
		}
		nRight := total - nLeft
		imp := float64(nLeft)/float64(total)*b.cfg.Criterion.Impurity(left, nLeft) +
			float64(nRight)/float64(total)*b.cfg.Criterion.Impurity(right, nRight)
		gain := parentImp - imp
		if b.cfg.Criterion == GainRatio {
			si := splitInfo(nLeft, nRight, total)
			if si <= 0 {
				continue
			}
			gain /= si
		}
		if gain < b.cfg.MinGain {
			continue
		}
		cand := split{
			attr:      a,
			threshold: midpoint(v, col[order[k]]),
			gain:      gain,
			boundary:  boundary,
		}
		// The signature is only needed for tie comparisons; skip the
		// copies when the candidate is not competitive.
		if !found || cand.gain >= best.gain-1e-12 {
			cand.signature(left, right)
			if !found || cand.better(best, 1e-12) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// groupPure reports whether the group of equal values starting at
// position k of the order is label-pure.
func groupPure(col []float64, labels []int, order []int, k int) bool {
	v, l := col[order[k]], labels[order[k]]
	for j := k + 1; j < len(order) && col[order[j]] == v; j++ {
		if labels[order[j]] != l {
			return false
		}
	}
	return true
}

// categoricalSplit builds the multiway candidate of a categorical
// attribute: one branch per category code present in the subset. The
// candidate is valid when at least two codes occur and every branch
// meets MinLeaf.
func (b *builder) categoricalSplit(idx []int, counts []int, a int, parentImp float64) (split, bool) {
	col := b.d.Cols[a]
	k := b.d.NumCategories(a)
	perCode := make([][]int, k)
	sizes := make([]int, k)
	for _, i := range idx {
		c := int(col[i])
		if perCode[c] == nil {
			perCode[c] = make([]int, len(counts))
		}
		perCode[c][b.d.Labels[i]]++
		sizes[c]++
	}
	var cats []int
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		if sizes[c] < b.cfg.MinLeaf {
			return split{}, false
		}
		cats = append(cats, c)
	}
	if len(cats) < 2 {
		return split{}, false
	}
	total := len(idx)
	imp := 0.0
	branchSizes := make([]int, 0, len(cats))
	branches := make([][]int, 0, len(cats))
	for _, c := range cats {
		imp += float64(sizes[c]) / float64(total) * b.cfg.Criterion.Impurity(perCode[c], sizes[c])
		branchSizes = append(branchSizes, sizes[c])
		branches = append(branches, perCode[c])
	}
	gain := parentImp - imp
	if b.cfg.Criterion == GainRatio {
		si := splitInfoSizes(branchSizes, total)
		if si <= 0 {
			return split{}, false
		}
		gain /= si
	}
	if gain < b.cfg.MinGain {
		return split{}, false
	}
	cand := split{attr: a, multiway: true, cats: cats, gain: gain}
	cand.signature(branches...)
	return cand, true
}

// splitInfo is C4.5's split information for a binary partition.
func splitInfo(nLeft, nRight, total int) float64 {
	return splitInfoSizes([]int{nLeft, nRight}, total)
}

// splitInfoSizes is C4.5's split information: the entropy of arbitrary
// partition sizes.
func splitInfoSizes(sizes []int, total int) float64 {
	si := 0.0
	for _, n := range sizes {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		si -= p * math.Log2(p)
	}
	return si
}

func argmax(counts []int) int {
	best, bi := -1, 0
	for i, c := range counts {
		if c > best {
			best, bi = c, i
		}
	}
	return bi
}
