// Package dataset provides the tabular substrate the rest of the
// repository mines and transforms: a relation instance with numeric
// attributes and a categorical class label (Section 3.1 of the paper),
// stored column-major so per-attribute operations — sorting projections,
// computing active domains, applying transformations — touch contiguous
// memory.
package dataset

import (
	"fmt"
	"sort"
)

// Dataset is a relation instance D with m numeric attributes and a
// categorical class label per tuple. Attribute values are stored
// column-major: Cols[a][i] is the value of attribute a in tuple i.
// Labels[i] is the class of tuple i, an index into ClassNames.
type Dataset struct {
	// AttrNames holds one name per attribute, e.g. "age", "salary".
	AttrNames []string
	// Cols holds the attribute columns; all columns share one length.
	Cols [][]float64
	// Labels holds the class label index of each tuple.
	Labels []int
	// ClassNames maps label indices to display names, e.g. "High".
	ClassNames []string
	// catNames maps categorical attribute indices to their category
	// names; see MarkCategorical.
	catNames map[int][]string
}

// New creates an empty dataset with the given attribute and class names.
func New(attrNames, classNames []string) *Dataset {
	d := &Dataset{
		AttrNames:  append([]string(nil), attrNames...),
		Cols:       make([][]float64, len(attrNames)),
		ClassNames: append([]string(nil), classNames...),
	}
	return d
}

// NumAttrs returns the number of attributes m.
func (d *Dataset) NumAttrs() int { return len(d.Cols) }

// NumTuples returns the number of tuples n.
func (d *Dataset) NumTuples() int { return len(d.Labels) }

// NumClasses returns the number of distinct class labels.
func (d *Dataset) NumClasses() int { return len(d.ClassNames) }

// Append adds one tuple. vals must have one value per attribute and
// label must be a valid class index.
func (d *Dataset) Append(vals []float64, label int) error {
	if len(vals) != d.NumAttrs() {
		return fmt.Errorf("tuple has %d values, want %d: %w", len(vals), d.NumAttrs(), ErrSchemaMismatch)
	}
	if label < 0 || label >= len(d.ClassNames) {
		return fmt.Errorf("label %d out of range [0,%d): %w", label, len(d.ClassNames), ErrBadLabel)
	}
	for a, v := range vals {
		d.Cols[a] = append(d.Cols[a], v)
	}
	d.Labels = append(d.Labels, label)
	return nil
}

// Tuple returns the attribute values of tuple i as a fresh slice.
func (d *Dataset) Tuple(i int) []float64 {
	out := make([]float64, d.NumAttrs())
	for a := range d.Cols {
		out[a] = d.Cols[a][i]
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		AttrNames:  append([]string(nil), d.AttrNames...),
		Cols:       make([][]float64, len(d.Cols)),
		Labels:     append([]int(nil), d.Labels...),
		ClassNames: append([]string(nil), d.ClassNames...),
	}
	for a := range d.Cols {
		c.Cols[a] = append([]float64(nil), d.Cols[a]...)
	}
	if d.catNames != nil {
		c.catNames = make(map[int][]string, len(d.catNames))
		for a, names := range d.catNames {
			c.catNames[a] = append([]string(nil), names...)
		}
	}
	return c
}

// Validate checks the structural invariants of the dataset: consistent
// column lengths, valid labels, finite values, and non-empty
// attribute metadata.
func (d *Dataset) Validate() error {
	if len(d.AttrNames) != len(d.Cols) {
		return fmt.Errorf("attribute names and columns disagree: %w", ErrSchemaMismatch)
	}
	n := len(d.Labels)
	for a, col := range d.Cols {
		if len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d: %w", d.AttrNames[a], len(col), n, ErrSchemaMismatch)
		}
	}
	for i, l := range d.Labels {
		if l < 0 || l >= len(d.ClassNames) {
			return fmt.Errorf("tuple %d has label %d out of range: %w", i, l, ErrBadLabel)
		}
	}
	for a, col := range d.Cols {
		for i, v := range col {
			if !finite(v) {
				return fmt.Errorf("column %q tuple %d value %v: %w", d.AttrNames[a], i, v, ErrNonFiniteValue)
			}
		}
	}
	return d.validateCategorical()
}

// AttrIndex returns the index of the named attribute, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, n := range d.AttrNames {
		if n == name {
			return i
		}
	}
	return -1
}

// ActiveDomain returns the sorted distinct values of attribute a — the
// active domain δ(A) of Section 3.1.
func (d *Dataset) ActiveDomain(a int) []float64 {
	col := d.Cols[a]
	if len(col) == 0 {
		return nil
	}
	cp := append([]float64(nil), col...)
	sort.Float64s(cp)
	out := cp[:1]
	for _, v := range cp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// ProjectedTuple is an A-projected tuple ⟨t.A, c⟩: one attribute value
// plus the class label (Section 3.1).
type ProjectedTuple struct {
	Value float64
	Label int
}

// Projection returns the A-projected tuples of attribute a in tuple
// order.
func (d *Dataset) Projection(a int) []ProjectedTuple {
	col := d.Cols[a]
	out := make([]ProjectedTuple, len(col))
	for i, v := range col {
		out[i] = ProjectedTuple{Value: v, Label: d.Labels[i]}
	}
	return out
}

// SortedProjection returns the A-projected tuples sorted by value.
// Ties are broken by label so that equal values appear in a canonical
// order (Definition 6's "equal values are in some canonical order"),
// making class strings well-defined and transformation-invariant.
//
// The returned slice is freshly allocated; hot callers that profile
// repeatedly should use SortedProjectionInto with a reused ProjScratch.
func (d *Dataset) SortedProjection(a int) []ProjectedTuple {
	return d.SortedProjectionInto(a, &ProjScratch{})
}

// ClassCounts returns the number of tuples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, len(d.ClassNames))
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}

// Subset returns a new dataset containing the tuples whose indices are
// listed in idx, in that order.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := New(d.AttrNames, d.ClassNames)
	if d.catNames != nil {
		s.catNames = make(map[int][]string, len(d.catNames))
		for a, names := range d.catNames {
			s.catNames[a] = append([]string(nil), names...)
		}
	}
	s.Labels = make([]int, len(idx))
	for a := range s.Cols {
		s.Cols[a] = make([]float64, len(idx))
	}
	for k, i := range idx {
		for a := range d.Cols {
			s.Cols[a][k] = d.Cols[a][i]
		}
		s.Labels[k] = d.Labels[i]
	}
	return s
}

// Split partitions the dataset into tuples where Cols[a] <= threshold
// (left) and the rest (right).
func (d *Dataset) Split(a int, threshold float64) (left, right *Dataset) {
	var li, ri []int
	for i, v := range d.Cols[a] {
		if v <= threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return d.Subset(li), d.Subset(ri)
}

// Equal reports whether two datasets have identical schema and contents.
func (d *Dataset) Equal(o *Dataset) bool {
	if d.NumAttrs() != o.NumAttrs() || d.NumTuples() != o.NumTuples() || d.NumClasses() != o.NumClasses() {
		return false
	}
	for i, n := range d.AttrNames {
		if o.AttrNames[i] != n {
			return false
		}
	}
	for i, n := range d.ClassNames {
		if o.ClassNames[i] != n {
			return false
		}
	}
	for a := range d.Cols {
		for i := range d.Cols[a] {
			if d.Cols[a][i] != o.Cols[a][i] {
				return false
			}
		}
	}
	for i := range d.Labels {
		if d.Labels[i] != o.Labels[i] {
			return false
		}
	}
	if len(d.catNames) != len(o.catNames) {
		return false
	}
	for a, names := range d.catNames {
		other := o.catNames[a]
		if len(other) != len(names) {
			return false
		}
		for i := range names {
			if names[i] != other[i] {
				return false
			}
		}
	}
	return true
}
