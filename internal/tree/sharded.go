package tree

import (
	"context"
	"errors"
	"fmt"
	"io"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/runs"
)

// Out-of-core tree induction. BuildSharded mines the same tree as
// Build — byte-identical, at any shard and worker count — while
// holding only a bounded slice of the relation in memory. It is a
// hybrid of two exact engines:
//
//   - Large frontier nodes are grown from class-count histograms. The
//     split search is a function of per-distinct-value class counts,
//     not of rows: attrBest's scan over the (value, label) presort only
//     ever consults, per group of equal values, the per-class counts
//     (for the running left/right distributions and impurities), the
//     minimum present label (the "first tuple" of the group in
//     canonical order), label purity, and the group's value (for the
//     midpoint threshold). All of these read directly off a
//     runs.ClassGroup. The histograms merge exactly across shards
//     (integer counts sum), so per-shard sorted group runs folded with
//     runs.MergeClassGroups are element-identical to the groups of the
//     whole relation, and identical inputs to the same float arithmetic
//     give identical floats, thresholds, gains and tie-breaks.
//   - Small frontier nodes are materialized and finished by the
//     in-memory builder (growTree runs the builder Build runs), which
//     mines the same subtree from the same rows.
//
// The canonical-orientation flip test compares ascending vs descending
// class strings, both of which expand from the root's groups
// (runs.DescendingClassStringLess), so the root is always grouped and
// orientation flips match Build's exactly. unflip runs once on the
// finished tree, as in Build.
//
// The builder works in scans. Each scan streams every shard block-wise
// and routes each row through the partial tree. A row that reaches a
// large frontier node is reduced into that node's per-attribute class
// groups; a row that reaches a node of this scan's batch is copied
// into the node's rows (flipped attributes negated); any other row is
// skipped. After the scan the large nodes split, and the batch
// subtrees grow concurrently and are grafted in queue order. A child's
// row count is known as soon as its parent splits (the winning
// attribute's groups on each side of the threshold), and so is its
// class histogram: a child that must be a leaf becomes one at once, a
// child with at most budget rows joins the materialization queue, and
// any other child is grouped by the next scan. Each scan takes the
// longest prefix of the queue whose rows sum to at most the budget.
//
// Memory. The budget is min(workers, shards) × the largest shard's
// rows: the rows one scan already holds while its workers reduce their
// shards. Peak row memory is therefore O(workers × shard) — the scan's
// own rows plus one batch — and what persists between scans is only
// the group histograms, O(distinct values) per attribute and large
// node. There is no knob: the budget follows from the inputs.
//
// Measured on 20k covertype rows in 8 binary shards (a 2-core host,
// GOMAXPROCS 2): the level-per-scan builder made 41 scans for the
// depth-40 tree; the hybrid makes 10. In the end-to-end benchmark's
// roundtrip-shard mine step (4 such relations, seed 3), BuildSharded
// took 0.16 s against 0.07 s for Build over the same rows (0.75 s
// before the hybrid), and the step allocated 94 MB against 26 MB for
// the in-memory mine step (512 MB before).
//
// Sharded sources carry no categorical metadata (shard files are all
// numeric), so the categorical split path never triggers here.

// BuildSharded mines a decision tree from a sharded data set. The tree
// is byte-identical to Build over the materialized relation, at any
// shard and worker count.
func BuildSharded(src *dataset.ShardedSource, cfg Config) (*Tree, error) {
	schema := src.Schema()
	if schema.NumAttrs() == 0 {
		return nil, fmt.Errorf("%w: %w", ErrEmptyData, dataset.ErrNoAttributes)
	}
	if src.Total() == 0 {
		return nil, fmt.Errorf("no training tuples: %w", ErrEmptyData)
	}
	cfg = cfg.withDefaults()
	sp := obs.StartSpan("mine/build_sharded")
	defer sp.End()
	b := &shardedBuilder{
		src:      src,
		schema:   schema,
		cfg:      cfg,
		workers:  parallel.ResolveWorkers(cfg.Workers),
		nAttrs:   schema.NumAttrs(),
		nClasses: len(schema.ClassNames),
		flipped:  make([]bool, schema.NumAttrs()),
		span:     sp,
	}
	b.budget = min(b.workers, src.NumShards()) * maxShardRows(src)
	root, err := b.build()
	if err != nil {
		return nil, err
	}
	if cfg.Orientation == OrientationCanonical {
		unflip(root, b.flipped)
	}
	if obs.Enabled() {
		obs.Add("tree.builds", 1)
		obs.Add("tree.nodes", b.numNodes)
		obs.Add("tree.leaves", b.numLeaves)
		obs.Add("tree.sharded_scans", b.scans)
		obs.Gauge("tree.sharded_batch_rows_max", int64(b.batchRowsMax))
	}
	return &Tree{
		Root:       root,
		AttrNames:  append([]string(nil), schema.AttrNames...),
		ClassNames: append([]string(nil), schema.ClassNames...),
		Config:     cfg,
	}, nil
}

// maxShardRows returns the declared row count of src's largest shard.
func maxShardRows(src *dataset.ShardedSource) int {
	m := 0
	for i := 0; i < src.NumShards(); i++ {
		m = max(m, src.ShardRows(i))
	}
	return m
}

type shardedBuilder struct {
	src      *dataset.ShardedSource
	schema   *dataset.Schema
	cfg      Config
	workers  int
	nAttrs   int
	nClasses int
	// budget is the most rows one scan materializes.
	budget int
	// flipped holds the canonical-orientation flags, decided from the
	// root groups; all false under OrientationRaw. Once set, every scan
	// reads flipped attributes negated, so the growing tree lives in
	// canonical orientation exactly like Build's view.
	flipped []bool
	span    *obs.Span

	root                *Node
	numNodes, numLeaves int64
	// scans counts the passes over the shards; batchRowsMax is the
	// largest batch materialized by one of them.
	scans        int64
	batchRowsMax int
}

// pending is a tree node whose subtree is not grown yet.
type pending struct {
	node *Node
	dep  int
	rows int
}

// rowBuf holds rows routed to one node: columns and labels.
type rowBuf struct {
	cols   [][]float64
	labels []int
}

// build runs scans until no node is pending: each scan groups the
// large frontier and materializes one batch of the queue. A grown
// batch node keeps its empty placeholder, which no later scan has a
// slot for (so its rows are skipped), until the subtrees are grafted,
// in queue order, after the last scan.
func (b *shardedBuilder) build() (*Node, error) {
	b.root = &Node{}
	frontier := []pending{{node: b.root, rows: b.src.Total()}}
	var queue, grown []pending
	var subtrees []*Node
	for len(frontier) > 0 || len(queue) > 0 {
		n := 0
		rows := 0
		for n < len(queue) && rows+queue[n].rows <= b.budget {
			rows += queue[n].rows
			n++
		}
		batch := queue[:n:n]
		queue = queue[n:]
		b.batchRowsMax = max(b.batchRowsMax, rows)

		groups, parts, err := b.scan(frontier, batch)
		if err != nil {
			return nil, err
		}
		if b.scans == 1 && b.cfg.Orientation == OrientationCanonical {
			// The root groups were collected unflipped; decide each
			// attribute's orientation from them, then rewrite the
			// flipped attributes' groups in place — FlipClassGroups is
			// exactly the groups of the negated column — so the root
			// split search already runs in canonical orientation.
			for a := 0; a < b.nAttrs; a++ {
				if runs.DescendingClassStringLess(groups[0][a]) {
					b.flipped[a] = true
					runs.FlipClassGroups(groups[0][a])
				}
			}
		}
		subtrees = append(subtrees, b.growBatch(batch, parts)...)
		grown = append(grown, batch...)
		var next []pending
		for fi, p := range frontier {
			for _, c := range b.split(p, groups[fi]) {
				switch {
				case c.node.Leaf:
				case c.rows <= b.budget:
					queue = append(queue, c)
				default:
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	for i, p := range grown {
		*p.node = *subtrees[i]
	}
	return b.root, nil
}

// split decides frontier node p from its merged class groups: it
// becomes a leaf, or splits and returns its two children. A child that
// must be a leaf is finished here from its class histogram; the others
// come back pending.
func (b *shardedBuilder) split(p pending, gs [][]runs.ClassGroup) []pending {
	n := p.node
	counts := make([]int, b.nClasses)
	for _, g := range gs[0] {
		for c, k := range g.Counts {
			counts[c] += k
		}
	}
	b.numNodes++
	n.Counts = counts
	n.Class = argmax(counts)
	if stopNode(b.cfg, counts, p.rows, p.dep) {
		n.Leaf = true
		b.numLeaves++
		return nil
	}
	best, ok := b.bestGroupSplit(gs, counts, p.rows)
	if !ok {
		n.Leaf = true
		b.numLeaves++
		return nil
	}
	n.Attr = best.attr
	n.Threshold = best.threshold
	left := make([]int, b.nClasses)
	for _, g := range gs[best.attr] {
		if g.Value > best.threshold {
			break
		}
		for c, k := range g.Counts {
			left[c] += k
		}
	}
	right := make([]int, b.nClasses)
	nLeft := 0
	for c := range counts {
		right[c] = counts[c] - left[c]
		nLeft += left[c]
	}
	n.Left = b.child(left, nLeft, p.dep+1)
	n.Right = b.child(right, p.rows-nLeft, p.dep+1)
	return []pending{{n.Left, p.dep + 1, nLeft}, {n.Right, p.dep + 1, p.rows - nLeft}}
}

// child makes a split's child node: a finished leaf when stopNode
// holds for its class histogram, exactly as grow would make it, or an
// empty node to grow later.
func (b *shardedBuilder) child(counts []int, rows, dep int) *Node {
	if !stopNode(b.cfg, counts, rows, dep) {
		return &Node{}
	}
	b.numNodes++
	b.numLeaves++
	return &Node{Counts: counts, Class: argmax(counts), Leaf: true}
}

// growBatch assembles each batch node's rows, in shard order, into a
// dataset and grows its subtree with the in-memory engine. The
// subtrees grow concurrently; they come back in batch order.
func (b *shardedBuilder) growBatch(batch []pending, parts [][]rowBuf) []*Node {
	if len(batch) == 0 {
		return nil
	}
	sp := b.span.Child("subtree")
	defer sp.End()
	roots := make([]*Node, len(batch))
	nodes := make([]int64, len(batch))
	leaves := make([]int64, len(batch))
	_ = parallel.ForEach(context.Background(), len(batch), b.workers, func(bi int) error {
		d := &dataset.Dataset{
			AttrNames:  b.schema.AttrNames,
			ClassNames: b.schema.ClassNames,
			Cols:       make([][]float64, b.nAttrs),
			Labels:     make([]int, 0, batch[bi].rows),
		}
		for a := range d.Cols {
			d.Cols[a] = make([]float64, 0, batch[bi].rows)
		}
		for si := range parts[bi] {
			part := &parts[bi][si]
			for a, col := range part.cols {
				d.Cols[a] = append(d.Cols[a], col...)
			}
			d.Labels = append(d.Labels, part.labels...)
			*part = rowBuf{} // copied; free it eagerly
		}
		roots[bi], nodes[bi], leaves[bi] = growTree(d, b.cfg, batch[bi].dep)
		return nil
	})
	for bi := range batch {
		b.numNodes += nodes[bi]
		b.numLeaves += leaves[bi]
	}
	return roots
}

// routeRow descends row r of blk through the partial tree to the leaf
// or pending node it reaches.
func (b *shardedBuilder) routeRow(blk *dataset.Block, r int) *Node {
	n := b.root
	for n.Left != nil {
		v := blk.Cols[n.Attr][r]
		if b.flipped[n.Attr] {
			v = -v
		}
		if v <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// scan is one pass over every shard. Rows reaching frontier node fi
// reduce, per shard, into class groups per attribute, which merge in
// shard-index order: groups[fi][a] is element-identical to
// GroupClasses over node fi's full subset of attribute a (flipped
// attributes negated), which is what makes the split search
// byte-identical to the in-memory scan. Rows reaching batch node bi
// are kept: parts[bi][si] holds those of shard si.
func (b *shardedBuilder) scan(frontier, batch []pending) (groups [][][]runs.ClassGroup, parts [][]rowBuf, err error) {
	sp := b.span.Child("scan")
	defer sp.End()
	b.scans++
	nf := len(frontier)
	slots := append(append(make([]pending, 0, nf+len(batch)), frontier...), batch...)
	slotOf := make(map[*Node]int, len(slots))
	for i, p := range slots {
		slotOf[p.node] = i
	}
	nShards := b.src.NumShards()
	perShard := make([][][][]runs.ClassGroup, nShards) // [shard][node][attr]
	parts = make([][]rowBuf, len(batch))
	for bi := range parts {
		parts[bi] = make([]rowBuf, nShards)
	}
	err = parallel.ForEach(context.Background(), nShards, b.workers, func(si int) error {
		sh, err := b.src.Shard(si)
		if err != nil {
			return err
		}
		defer sh.Close()
		bufs := make([]rowBuf, len(slots))
		for {
			blk, err := sh.Next(0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			for r := 0; r < len(blk.Labels); r++ {
				slot, ok := slotOf[b.routeRow(blk, r)]
				if !ok {
					continue
				}
				buf := &bufs[slot]
				if buf.cols == nil {
					// Size for the shard's share of the node's rows;
					// an unevenly spread node grows by append.
					n := slots[slot].rows*sh.Total()/b.src.Total() + 64
					buf.cols = make([][]float64, b.nAttrs)
					for a := range buf.cols {
						buf.cols[a] = make([]float64, 0, n)
					}
					buf.labels = make([]int, 0, n)
				}
				for a := 0; a < b.nAttrs; a++ {
					v := blk.Cols[a][r]
					if b.flipped[a] {
						v = -v
					}
					buf.cols[a] = append(buf.cols[a], v)
				}
				buf.labels = append(buf.labels, blk.Labels[r])
			}
		}
		out := make([][][]runs.ClassGroup, nf)
		for fi := range out {
			if bufs[fi].cols == nil {
				continue
			}
			out[fi] = make([][]runs.ClassGroup, b.nAttrs)
			for a := 0; a < b.nAttrs; a++ {
				out[fi][a] = runs.GroupClasses(bufs[fi].cols[a], bufs[fi].labels, b.nClasses)
				bufs[fi].cols[a] = nil // rows are folded; free them eagerly
			}
		}
		perShard[si] = out
		for bi := range batch {
			parts[bi][si] = bufs[nf+bi]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Merge per (node, attribute), each fold in shard-index order. The
	// merges are independent, so they fan out like the scan.
	groups = make([][][]runs.ClassGroup, nf)
	for fi := range groups {
		groups[fi] = make([][]runs.ClassGroup, b.nAttrs)
	}
	_ = parallel.ForEach(context.Background(), nf*b.nAttrs, b.workers, func(i int) error {
		fi, a := i/b.nAttrs, i%b.nAttrs
		sg := make([][]runs.ClassGroup, 0, nShards)
		for si := 0; si < nShards; si++ {
			if perShard[si][fi] == nil {
				continue
			}
			sg = append(sg, perShard[si][fi][a])
		}
		groups[fi][a] = runs.MergeClassGroups(sg)
		return nil
	})
	return groups, parts, nil
}

// bestGroupSplit mirrors bestSplit over class groups: every
// attribute's candidate search is independent, winners reduce in
// attribute order, and the same parallelism threshold applies — the
// selected split is identical at any worker count, and identical to
// the in-memory search.
func (b *shardedBuilder) bestGroupSplit(gs [][]runs.ClassGroup, counts []int, total int) (split, bool) {
	parentImp := b.cfg.Criterion.Impurity(counts, total)
	m := b.nAttrs
	if obs.Enabled() {
		obs.Add("tree.split_scans", int64(m))
	}
	if b.workers > 1 && total >= ParallelMinRows && m > 1 {
		cands := make([]split, m)
		founds := make([]bool, m)
		_ = parallel.ForEach(context.Background(), m, b.workers, func(a int) error {
			left := make([]int, len(counts))
			right := make([]int, len(counts))
			cands[a], founds[a] = attrBestGroups(b.cfg, a, gs[a], counts, total, parentImp, left, right)
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
	left := make([]int, len(counts))
	right := make([]int, len(counts))
	for a := 0; a < m; a++ {
		if cand, ok := attrBestGroups(b.cfg, a, gs[a], counts, total, parentImp, left, right); ok {
			if !found || cand.better(best, 1e-12) {
				best = cand
				found = true
			}
		}
	}
	return best, found
}

// attrBestGroups is attrBest's scan expressed over class groups. Each
// group plays the role of one block of equal values in the (value,
// label) presort: the minimum present label is the block's first-tuple
// label, one nonzero class means label-pure, and the left/right
// distributions advance by the group's histogram. Identical integer
// counts feed identical float arithmetic, so gains, thresholds and
// tie-break signatures come out bit-equal to the in-memory scan.
func attrBestGroups(cfg Config, a int, groups []runs.ClassGroup, counts []int, total int, parentImp float64, left, right []int) (split, bool) {
	var best split
	found := false
	for c := range left {
		left[c] = 0
		right[c] = counts[c]
	}
	nLeft := 0
	boundary := 0
	for k := 0; k < len(groups); k++ {
		g := groups[k]
		groupLabel, pure := groupLabelPure(g.Counts)
		for c, n := range g.Counts {
			left[c] += n
			right[c] -= n
			nLeft += n
		}
		if k == len(groups)-1 {
			break
		}
		boundary++
		if nLeft < cfg.MinLeaf || total-nLeft < cfg.MinLeaf {
			continue
		}
		// Lemma 2: a boundary strictly inside a label run — both
		// adjacent groups pure with the same label — can never be
		// optimal, so skip it (unless benchmarking the full scan).
		if !cfg.FullSplitScan {
			nextLabel, nextPure := groupLabelPure(groups[k+1].Counts)
			if pure && groupLabel == nextLabel && nextPure {
				continue
			}
		}
		nRight := total - nLeft
		imp := float64(nLeft)/float64(total)*cfg.Criterion.Impurity(left, nLeft) +
			float64(nRight)/float64(total)*cfg.Criterion.Impurity(right, nRight)
		gain := parentImp - imp
		if cfg.Criterion == GainRatio {
			si := splitInfo(nLeft, nRight, total)
			if si <= 0 {
				continue
			}
			gain /= si
		}
		if gain < cfg.MinGain {
			continue
		}
		cand := split{
			attr:      a,
			threshold: midpoint(g.Value, groups[k+1].Value),
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

// groupLabelPure returns the minimum class with a nonzero count — the
// label of the group's first tuple in canonical (value, label) order —
// and whether the group is label-pure.
func groupLabelPure(counts []int) (label int, pure bool) {
	label = -1
	nonzero := 0
	for c, n := range counts {
		if n == 0 {
			continue
		}
		if label < 0 {
			label = c
		}
		nonzero++
	}
	return label, nonzero == 1
}
