package dataset

import (
	"math"
	"slices"
	"sync"
)

// The pooled sorted-projection fast path. SortedProjection is the hot
// inner operation of the encode pipeline's profile stage (one call per
// attribute per encode, over the full column), so it gets an
// allocation-lean variant: callers that profile repeatedly hand in a
// ProjScratch whose buffers are reused across calls, and the sort is
// non-reflective — pdqsort via slices.SortFunc for short columns, an
// LSD radix sort on the IEEE-754 bit pattern for long ones. Both paths
// produce the exact (Value, Label) order of Definition 6's canonical
// tie-breaking. The same sort also serves the tree builder's presort,
// through SortOrder, which returns tuple indices instead of pairs.

// radixMinLen is the column length at which the radix sort takes over
// from the comparison sort. Below it the O(n log n) comparison sort
// wins on constant factors; above it the O(8n) byte passes (most of
// which are skipped for narrow-range data) dominate.
const radixMinLen = 256

// ProjScratch is reusable working memory for SortedProjectionInto: the
// projection buffer the sorted result lives in, the ping-pong buffer
// the radix passes swap through, and the label-counting array.
//
// Ownership rules (see DESIGN.md §5e): the slice returned by
// SortedProjectionInto aliases the scratch and is valid only until the
// next call with the same scratch; callers keep nothing that aliases
// it (copy what outlives the call, as runs.GroupColumn does). A scratch
// must not be shared between goroutines; per-worker scratches (or the
// package pool) give each goroutine its own.
type ProjScratch struct {
	proj []ProjectedTuple
	swap []ProjectedTuple
	cnt  []int
}

var projScratchPool = sync.Pool{New: func() any { return new(ProjScratch) }}

// GetProjScratch hands out a pooled scratch; return it with
// PutProjScratch when done. Serial call sites (one profile at a time)
// use the pool; fan-outs that want zero pool traffic allocate one
// scratch per worker instead.
func GetProjScratch() *ProjScratch { return projScratchPool.Get().(*ProjScratch) }

// PutProjScratch returns a scratch to the pool. The caller must not
// use the scratch — or any projection slice obtained from it — after
// the put.
func PutProjScratch(s *ProjScratch) { projScratchPool.Put(s) }

// SortedProjectionInto is SortedProjection without the per-call
// allocation: the A-projected tuples are materialized and sorted in
// s's buffers and the sorted slice (aliasing s) is returned. The
// ordering is identical to SortedProjection: ascending by value,
// ties broken by label (Definition 6's canonical order).
func (d *Dataset) SortedProjectionInto(a int, s *ProjScratch) []ProjectedTuple {
	return s.SortPairs(d.Cols[a], d.Labels)
}

// SortPairs is SortedProjectionInto over loose parallel slices: the
// pairs (values[i], labels[i]) are sorted by (value, label) in s's
// buffers and the sorted slice (aliasing s) is returned. labels must
// be at least as long as values.
func (s *ProjScratch) SortPairs(values []float64, labels []int) []ProjectedTuple {
	s.resize(len(values))
	for i, v := range values {
		s.proj[i] = ProjectedTuple{Value: v, Label: labels[i]}
	}
	s.sort(false)
	return s.proj
}

// SortOrder is the index-returning sibling of SortPairs: it fills
// order with the tuple indices 0..len(values)-1 listed in SortPairs'
// (value, label) order, ties between equal pairs in index order.
// byLabel must hold the same indices stably sorted by label
// (Dataset.LabelOrder); every column of one relation shares it, so the
// label pass runs once per relation rather than once per column.
// order must have len(values) elements.
func (s *ProjScratch) SortOrder(values []float64, byLabel, order []int) {
	s.resize(len(values))
	// Tuple j carries its rank in byLabel as its label. Ranks are
	// distinct and ascend with (label, index), so sorting by
	// (value, rank) sorts by (value, label, index), and the ranks are
	// already in label order: only the value passes remain.
	for j, i := range byLabel {
		s.proj[j] = ProjectedTuple{Value: values[i], Label: j}
	}
	s.sort(true)
	for k, t := range s.proj {
		order[k] = byLabel[t.Label]
	}
}

// LabelOrder fills order with the tuple indices 0..NumTuples()-1
// stably sorted by label: one counting sort over the class labels.
// The labels must be valid (see Validate). order must have
// NumTuples() elements.
func (d *Dataset) LabelOrder(order []int) {
	start := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		start[l]++
	}
	pos := 0
	for l, c := range start {
		start[l] = pos
		pos += c
	}
	for i, l := range d.Labels {
		order[start[l]] = i
		start[l]++
	}
}

// resize makes s.proj n tuples long, reusing its buffer when it can.
func (s *ProjScratch) resize(n int) {
	if cap(s.proj) < n {
		s.proj = make([]ProjectedTuple, n)
	}
	s.proj = s.proj[:n]
}

// sort orders s.proj by (Value, Label), choosing the radix path for
// long columns. Either path yields the same element sequence on
// NaN-free data; tuples equal in both fields are indistinguishable, so
// their internal order never matters. labelsSorted says s.proj is
// already in ascending label order, so the radix path can skip its
// label pass.
func (s *ProjScratch) sort(labelsSorted bool) {
	n := len(s.proj)
	if n < radixMinLen {
		s.sortCompare()
		return
	}
	minL, maxL := s.proj[0].Label, s.proj[0].Label
	nan := false
	for _, t := range s.proj {
		if t.Label < minL {
			minL = t.Label
		}
		if t.Label > maxL {
			maxL = t.Label
		}
		if t.Value != t.Value {
			nan = true
		}
	}
	// The radix key orders NaNs deterministically (by sign bit) while
	// the comparison sort leaves them wherever the inconsistent
	// comparator drops them; fall back so both paths stay governed by
	// one (unspecified-for-NaN) order. Sparse label spaces would blow
	// up the counting sort; they cannot arise from validated datasets
	// (labels index ClassNames) but hand-built ones get the safe path.
	if nan || maxL-minL+1 > n {
		s.sortCompare()
		return
	}
	if !labelsSorted && minL < maxL {
		s.sortLabels(minL, maxL-minL+1)
	}
	s.sortValues()
}

// sortCompare is the comparison path of sort: pdqsort by
// (Value, Label).
func (s *ProjScratch) sortCompare() {
	slices.SortFunc(s.proj, func(x, y ProjectedTuple) int {
		if x.Value < y.Value {
			return -1
		}
		if x.Value > y.Value {
			return 1
		}
		return x.Label - y.Label
	})
}

// orderedBits maps a float64 to a uint64 whose unsigned order matches
// the float order: flip all bits of negatives, flip the sign bit of
// non-negatives. Negative zero folds onto positive zero so the bit
// order agrees with the comparison order (-0.0 == +0.0 under <).
func orderedBits(v float64) uint64 {
	if v == 0 {
		v = 0 // fold -0.0 onto +0.0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortLabels is the radix path's first pass: a stable counting sort
// of s.proj on the label (k buckets from minLabel), which establishes
// the tie order the value passes preserve.
func (s *ProjScratch) sortLabels(minLabel, k int) {
	s.resizeSwap()
	if cap(s.cnt) < k {
		s.cnt = make([]int, k)
	}
	cnt := s.cnt[:k]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, t := range s.proj {
		cnt[t.Label-minLabel]++
	}
	pos := 0
	for i, c := range cnt {
		cnt[i] = pos
		pos += c
	}
	for _, t := range s.proj {
		b := t.Label - minLabel
		s.swap[cnt[b]] = t
		cnt[b]++
	}
	// Both buffers are scratch-owned, so swapping roles is free.
	s.proj, s.swap = s.swap, s.proj
}

// sortValues sorts s.proj by Value with stable LSD byte passes over
// the ordered value bits, preserving the existing order among equal
// values. Passes whose byte is constant across the column — the
// common case for real data, whose values occupy a narrow slice of
// the float range — are skipped.
func (s *ProjScratch) sortValues() {
	n := len(s.proj)
	s.resizeSwap()
	cur, alt := s.proj, s.swap

	// One pass collects all eight byte histograms.
	var hist [8][256]int
	for _, t := range cur {
		key := orderedBits(t.Value)
		for b := 0; b < 8; b++ {
			hist[b][byte(key>>(8*b))]++
		}
	}
	for b := 0; b < 8; b++ {
		c := &hist[b]
		skip := false
		for _, v := range c {
			if v == n {
				skip = true
				break
			}
			if v != 0 {
				break
			}
		}
		if skip {
			continue
		}
		pos := 0
		for i, v := range c {
			c[i] = pos
			pos += v
		}
		shift := uint(8 * b)
		for _, t := range cur {
			by := byte(orderedBits(t.Value) >> shift)
			alt[c[by]] = t
			c[by]++
		}
		cur, alt = alt, cur
	}
	// The sorted sequence must end up in s.proj.
	s.proj, s.swap = cur, alt
}

// resizeSwap makes the ping-pong buffer as long as s.proj.
func (s *ProjScratch) resizeSwap() {
	n := len(s.proj)
	if cap(s.swap) < n {
		s.swap = make([]ProjectedTuple, n)
	}
	s.swap = s.swap[:n]
}
