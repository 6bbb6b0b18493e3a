package tree

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
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
	sp := obs.StartSpan("mine/build")
	psp := sp.Child("presort")
	b := newBuilder(d, cfg)
	var flipped []bool
	if cfg.Orientation == OrientationCanonical {
		flipped = b.orient()
	}
	psp.End()
	gsp := sp.Child("grow")
	root := b.grow(0, d.NumTuples(), 0)
	gsp.End()
	if flipped != nil {
		unflip(root, flipped)
	}
	sp.End()
	if obs.Enabled() {
		obs.Add("tree.builds", 1)
		obs.Add("tree.nodes", b.numNodes)
		obs.Add("tree.leaves", b.numLeaves)
	}
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
		Config:     cfg,
	}, nil
}

// growTree grows the subtree over every tuple of d, rooted at depth
// dep, and returns it with its node and leaf counts, with the builder
// Build runs. d must already be in the orientation the tree is mined
// in: BuildSharded grows each frontier node it materializes through it
// at that node's depth.
func growTree(d *dataset.Dataset, cfg Config, dep int) (root *Node, nodes, leaves int64) {
	b := newBuilder(d, cfg)
	root = b.grow(0, d.NumTuples(), dep)
	return root, b.numNodes, b.numLeaves
}

// orient puts the builder in canonical orientation: every numeric
// attribute whose descending class string is lexicographically smaller
// than its ascending one is negated, in a view of the data that
// duplicates only the flipped columns, and the per-attribute flip
// flags are returned. Both class strings are read off the presort, and
// a flipped attribute's presort is turned round group by group.
// Negation reverses the value order while preserving tie blocks, so the
// flipped attribute's ascending class string is exactly the canonical
// descending reading of the original.
func (b *builder) orient() []bool {
	flipped := make([]bool, b.d.NumAttrs())
	var view *dataset.Dataset
	for a, order := range b.orders {
		if order == nil {
			continue // category codes have no order to canonicalize
		}
		col := b.d.Cols[a]
		if !descendingLess(col, b.d.Labels, order) {
			continue
		}
		flipped[a] = true
		if view == nil {
			cp := *b.d
			cp.Cols = append([][]float64(nil), b.d.Cols...)
			view = &cp
		}
		neg := make([]float64, len(col))
		for i, v := range col {
			neg[i] = -v
		}
		view.Cols[a] = neg
		reverseGroups(col, order)
	}
	if view != nil {
		b.d = view
	}
	return flipped
}

// descendingLess reports whether the descending class string of a
// presorted column — its groups of equal values read back to front,
// each group front to back (the canonical tie order) — is
// lexicographically smaller than the ascending one, labels[order[i]].
// It compares the two strings label by label without materializing
// either.
func descendingLess(col []float64, labels []int, order []int) bool {
	end := len(order) // the descending reading's current group is [start, end)
	start := groupStart(col, order, end)
	j := start
	for _, i := range order {
		if j == end {
			end = start
			start = groupStart(col, order, end)
			j = start
		}
		la, ld := labels[i], labels[order[j]]
		if ld != la {
			return ld < la
		}
		j++
	}
	return false
}

// groupStart returns the first position of the group of equal values
// that ends just before position end of the order.
func groupStart(col []float64, order []int, end int) int {
	start := end - 1
	for start > 0 && col[order[start-1]] == col[order[end-1]] {
		start--
	}
	return start
}

// reverseGroups turns a presort round for the negated column: the
// groups of equal values come in reverse order, each keeping its
// internal (label, index) order.
func reverseGroups(col []float64, order []int) {
	slices.Reverse(order)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && col[order[hi]] == col[order[lo]] {
			hi++
		}
		slices.Reverse(order[lo:hi])
		lo = hi
	}
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
	// idx holds every tuple index; a node owns a range [lo, hi) of it,
	// in no particular order.
	idx []int
	// orders holds, per numeric attribute, every tuple index sorted by
	// (value, label) — the SPRINT-style presort that lets split search
	// scan attributes without re-sorting at every node. A node owns
	// the same range [lo, hi) of every order as of idx, and stable
	// partitioning keeps each range sorted. Categorical attributes keep
	// a nil order.
	orders [][]int
	// side is per-tuple scratch for partitioning: the branch index each
	// member of the current node goes to.
	side []int32
	// buf is the n-sized scratch partition scatters a range through;
	// next holds its per-branch write cursors.
	buf, next []int
	// scan is the working memory of the serial split scan; concurrent
	// scans allocate their own. bestSig holds the signature of the
	// serial search's running best.
	scan    scanScratch
	bestSig []int
	// numNodes and numLeaves count the grown tree for the observability
	// layer. grow runs on a single goroutine (only split search inside a
	// node fans out), so plain increments suffice.
	numNodes, numLeaves int64
}

// newBuilder presorts the attribute orders once, with one radix sort
// per numeric attribute over a label order all of them share; split
// search then runs in linear time per attribute per node.
func newBuilder(d *dataset.Dataset, cfg Config) *builder {
	n := d.NumTuples()
	b := &builder{
		d:       d,
		cfg:     cfg,
		workers: parallel.ResolveWorkers(cfg.Workers),
		idx:     make([]int, n),
		side:    make([]int32, n),
		buf:     make([]int, n),
		scan:    newScanScratch(d.NumClasses()),
	}
	for i := range b.idx {
		b.idx[i] = i
	}
	byLabel := b.buf // free until the first partition
	d.LabelOrder(byLabel)
	s := dataset.GetProjScratch()
	defer dataset.PutProjScratch(s)
	b.orders = make([][]int, d.NumAttrs())
	for a := range b.orders {
		if d.IsCategorical(a) {
			continue
		}
		b.orders[a] = make([]int, n)
		s.SortOrder(d.Cols[a], byLabel, b.orders[a])
	}
	return b
}

// grow recursively builds the subtree over the node's tuples, the range
// [lo, hi) of idx and of every attribute order. The presort is
// maintained through stable partitioning, so no node ever sorts.
func (b *builder) grow(lo, hi, dep int) *Node {
	counts := make([]int, b.d.NumClasses())
	for _, i := range b.idx[lo:hi] {
		counts[b.d.Labels[i]]++
	}
	b.numNodes++
	node := &Node{Counts: counts, Class: argmax(counts)}
	if b.stop(counts, hi-lo, dep) {
		node.Leaf = true
		b.numLeaves++
		return node
	}
	best, ok := b.bestSplit(lo, hi, counts)
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
		for _, i := range b.idx[lo:hi] {
			b.side[i] = pos[int(col[i])]
		}
		bounds := make([]int, len(best.cats)+1)
		b.partition(lo, hi, bounds)
		node.Branches = make([]*Node, len(best.cats))
		for i := range node.Branches {
			node.Branches[i] = b.grow(bounds[i], bounds[i+1], dep+1)
		}
		return node
	}
	node.Threshold = best.threshold
	for _, i := range b.idx[lo:hi] {
		if col[i] <= best.threshold {
			b.side[i] = 0
		} else {
			b.side[i] = 1
		}
	}
	var bounds [3]int
	b.partition(lo, hi, bounds[:])
	node.Left = b.grow(bounds[0], bounds[1], dep+1)
	node.Right = b.grow(bounds[1], bounds[2], dep+1)
	return node
}

// partition reorders the node's range [lo, hi) of idx and of every
// attribute order stably into k = len(bounds)-1 consecutive child
// ranges, by the branch indices stored in b.side, and sets child c's
// range to [bounds[c], bounds[c+1]). Stability preserves the
// (value, label) presort within every child.
func (b *builder) partition(lo, hi int, bounds []int) {
	k := len(bounds) - 1
	clear(bounds)
	for _, i := range b.idx[lo:hi] {
		bounds[b.side[i]+1]++
	}
	bounds[0] = lo
	for c := 1; c <= k; c++ {
		bounds[c] += bounds[c-1]
	}
	if cap(b.next) < k {
		b.next = make([]int, k)
	}
	b.next = b.next[:k]
	b.scatter(b.idx[lo:hi], lo, bounds)
	for _, order := range b.orders {
		if order != nil {
			b.scatter(order[lo:hi], lo, bounds)
		}
	}
}

// scatter stably reorders r, the range of an index array starting at
// lo, by branch: each index goes to the next free slot of its child's
// range (bounds, as partition sets them), through b.buf.
func (b *builder) scatter(r []int, lo int, bounds []int) {
	next := b.next
	for c := range next {
		next[c] = bounds[c] - lo
	}
	buf := b.buf[:len(r)]
	for _, i := range r {
		s := b.side[i]
		buf[next[s]] = i
		next[s]++
	}
	copy(r, buf)
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

// binarySignature is signature for the two children of a binary split,
// without the general path's allocations: it orders the two count
// vectors with one comparison and writes them into buf's storage,
// returning the result.
func binarySignature(buf, left, right []int) []int {
	if lexLess(right, left) {
		left, right = right, left
	}
	return append(append(buf[:0], left...), right...)
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
func (b *builder) bestSplit(lo, hi int, counts []int) (split, bool) {
	total := hi - lo
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
			sc := newScanScratch(len(counts))
			cands[a], founds[a] = b.attrBest(a, lo, hi, counts, parentImp, &sc)
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
		if cand, ok := b.attrBest(a, lo, hi, counts, parentImp, &b.scan); ok {
			if !found || cand.better(best, 1e-12) {
				best = cand
				// cand.sig may alias b.scan, which the next scan reuses.
				b.bestSig = append(b.bestSig[:0], cand.sig...)
				best.sig = b.bestSig
				found = true
			}
		}
	}
	return best, found
}

// attrBest returns attribute a's best candidate split over the node's
// tuples [lo, hi), scanning the presorted range once for numeric
// attributes. sc is scratch owned by the caller; the signature of the
// split returned may alias it.
func (b *builder) attrBest(a, lo, hi int, counts []int, parentImp float64, sc *scanScratch) (split, bool) {
	if b.d.IsCategorical(a) {
		return b.categoricalSplit(b.idx[lo:hi], counts, a, parentImp)
	}
	order := b.orders[a][lo:hi]
	total := hi - lo
	col := b.d.Cols[a]
	labels := b.d.Labels
	var best split
	found := false
	left, right := sc.left, sc.right
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
			cand.sig = binarySignature(sc.cand, left, right)
			if !found || cand.better(best, 1e-12) {
				best = cand
				best.sig = append(sc.best[:0], cand.sig...)
				found = true
			}
		}
	}
	return best, found
}

// scanScratch is the working memory of one attribute scan: the running
// left and right class counts, and the signature buffers of the
// current candidate and of the best split so far.
type scanScratch struct {
	left, right []int
	cand, best  []int
}

func newScanScratch(classes int) scanScratch {
	return scanScratch{
		left:  make([]int, classes),
		right: make([]int, classes),
		cand:  make([]int, 0, 2*classes),
		best:  make([]int, 0, 2*classes),
	}
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
