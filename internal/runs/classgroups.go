package runs

import "privtree/internal/dataset"

// Class-count groups: the sufficient statistic of the decision-tree
// split search. For one attribute, the groups record — per distinct
// value, in ascending value order — how many tuples of each class carry
// that value. Everything the split scan consults is a function of these
// histograms: the running left/right class counts, each group's "first
// tuple" label in canonical (value, label) order (the minimum class
// with a nonzero count), label purity (exactly one nonzero class), and
// the candidate thresholds (midpoints of consecutive group values).
// Class strings are recoverable too — within a value the canonical tie
// order lists labels ascending, so a group expands to its classes in
// index order with their multiplicities.
//
// Like ValueGroup, ClassGroup admits an exact, order-insensitive
// combine (counts sum), so per-shard sorted group runs merge into
// element-identical global groups — the algebra that lets tree
// induction run out-of-core over a sharded relation while reproducing
// the in-memory scan bit for bit.

// ClassGroup aggregates the tuples sharing one distinct value of an
// attribute into a per-class count histogram.
type ClassGroup struct {
	// Value is the shared attribute value.
	Value float64
	// Counts holds one tuple count per class label.
	Counts []int
}

// Rows returns the number of tuples in the group.
func (g ClassGroup) Rows() int {
	n := 0
	for _, c := range g.Counts {
		n += c
	}
	return n
}

// GroupClasses builds the class-count groups of one attribute
// projection: values[i] carries class labels[i], labels lie in
// [0, nClasses). The input need not be sorted; the output is in
// ascending value order. The pairs sort in a pooled radix scratch, and
// all groups' histograms share one exactly-sized counts arena.
func GroupClasses(values []float64, labels []int, nClasses int) []ClassGroup {
	if len(values) == 0 {
		return nil
	}
	s := dataset.GetProjScratch()
	defer dataset.PutProjScratch(s)
	proj := s.SortPairs(values, labels)
	distinct := 1
	for i := 1; i < len(proj); i++ {
		if proj[i].Value != proj[i-1].Value {
			distinct++
		}
	}
	out := make([]ClassGroup, distinct)
	arena := make([]int, distinct*nClasses)
	g := -1
	for i, p := range proj {
		if i == 0 || p.Value != proj[i-1].Value {
			g++
			out[g] = ClassGroup{Value: p.Value, Counts: arena[g*nClasses : (g+1)*nClasses : (g+1)*nClasses]}
		}
		out[g].Counts[p.Label]++
	}
	return out
}

// MergeClassGroups merges per-shard class-count groups — each slice in
// ascending value order, as GroupClasses produces — into the groups of
// the union of the shards. The merge is exact: counts are integers and
// summing them is order-insensitive, so the result is element-identical
// to GroupClasses over the concatenated projection. A value's group
// takes its Value from the first shard holding it. The merged
// histograms share one exactly-sized counts arena: a first k-way pass
// counts the distinct values, a second fills them.
func MergeClassGroups(shards [][]ClassGroup) []ClassGroup {
	var live [][]ClassGroup
	nClasses := 0
	for _, sh := range shards {
		if len(sh) > 0 {
			live = append(live, sh)
			nClasses = len(sh[0].Counts)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return append([]ClassGroup(nil), live[0]...)
	}
	n := mergeClassRuns(live, nil, nil, nClasses)
	out := make([]ClassGroup, n)
	mergeClassRuns(live, out, make([]int, n*nClasses), nClasses)
	return out
}

// mergeClassRuns walks the k-way merge of value-sorted runs and
// returns the number of distinct values. With out non-nil it also
// writes each value's group, summing its counts into arena.
func mergeClassRuns(runs [][]ClassGroup, out []ClassGroup, arena []int, nClasses int) int {
	pos := make([]int, len(runs))
	for g := 0; ; g++ {
		first := -1
		var v float64
		for r, run := range runs {
			if pos[r] < len(run) && (first < 0 || run[pos[r]].Value < v) {
				first, v = r, run[pos[r]].Value
			}
		}
		if first < 0 {
			return g
		}
		var counts []int
		if out != nil {
			counts = arena[g*nClasses : (g+1)*nClasses : (g+1)*nClasses]
			out[g] = ClassGroup{Value: v, Counts: counts}
		}
		for r := first; r < len(runs); r++ {
			run := runs[r]
			if pos[r] >= len(run) || run[pos[r]].Value != v {
				continue
			}
			if counts != nil {
				for c, k := range run[pos[r]].Counts {
					counts[c] += k
				}
			}
			pos[r]++
		}
	}
}

// FlipClassGroups rewrites groups in place into the groups of the
// negated attribute: ascending order of -v is descending order of v,
// and negation preserves value ties, so the result is exactly
// GroupClasses over the negated projection.
func FlipClassGroups(groups []ClassGroup) {
	for i, j := 0, len(groups)-1; i < j; i, j = i+1, j-1 {
		groups[i], groups[j] = groups[j], groups[i]
	}
	for i := range groups {
		groups[i].Value = -groups[i].Value
	}
}

// DescendingClassStringLess reports whether the attribute's descending
// class string is lexicographically smaller than its ascending one —
// the canonical-orientation flip test — read directly off the
// class-count groups. Ascending expands the groups front to back,
// descending back to front; within a value both expand classes in
// ascending label order (the canonical tie order), exactly matching
// ClassStringOf and ClassStringDescendingOf. The comparison walks both
// strings as label runs, so it costs O(groups × classes), not O(rows).
func DescendingClassStringLess(groups []ClassGroup) bool {
	var desc, asc rleIter
	desc.init(groups, -1)
	asc.init(groups, +1)
	for {
		ld, nd := desc.cur()
		la, na := asc.cur()
		if nd == 0 || na == 0 {
			// Both strings have the same length, so they exhaust
			// together: equal strings are not less.
			return false
		}
		if ld != la {
			return ld < la
		}
		m := nd
		if na < m {
			m = na
		}
		desc.advance(m)
		asc.advance(m)
	}
}

// rleIter walks a class string run-length encoded off its class-count
// groups, in group order dir (+1 ascending, -1 descending). Within a
// group, classes always run ascending.
type rleIter struct {
	groups []ClassGroup
	dir    int
	gi     int // current group
	ci     int // current class within the group
	left   int // remaining labels of the current run
}

func (it *rleIter) init(groups []ClassGroup, dir int) {
	it.groups = groups
	it.dir = dir
	if dir > 0 {
		it.gi = 0
	} else {
		it.gi = len(groups) - 1
	}
	it.ci = -1
	it.nextRun()
}

// nextRun advances to the next nonzero class count, crossing group
// boundaries as needed.
func (it *rleIter) nextRun() {
	for it.gi >= 0 && it.gi < len(it.groups) {
		counts := it.groups[it.gi].Counts
		for it.ci++; it.ci < len(counts); it.ci++ {
			if counts[it.ci] > 0 {
				it.left = counts[it.ci]
				return
			}
		}
		it.gi += it.dir
		it.ci = -1
	}
	it.left = 0
}

// cur returns the current run's label and remaining length (0 when the
// string is exhausted).
func (it *rleIter) cur() (label, n int) {
	if it.left == 0 {
		return 0, 0
	}
	return it.ci, it.left
}

// advance consumes m labels of the current run.
func (it *rleIter) advance(m int) {
	it.left -= m
	if it.left == 0 {
		it.nextRun()
	}
}
