package tree

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/runs"
	"privtree/internal/synth"
)

// presortOracle is the reference for the builder's presort: per
// numeric attribute, every tuple index sorted by (value, label) with a
// comparison sort. Categorical attributes get a nil order.
func presortOracle(d *dataset.Dataset) [][]int {
	orders := make([][]int, d.NumAttrs())
	for a := range orders {
		if d.IsCategorical(a) {
			continue
		}
		order := make([]int, d.NumTuples())
		for i := range order {
			order[i] = i
		}
		col, labels := d.Cols[a], d.Labels
		sort.Slice(order, func(x, y int) bool {
			ix, iy := order[x], order[y]
			if col[ix] != col[iy] {
				return col[ix] < col[iy]
			}
			return labels[ix] < labels[iy]
		})
		orders[a] = order
	}
	return orders
}

// canonicalOrientation is the reference for the builder's orientation
// pass: a view of d in which every numeric attribute whose descending
// class string is lexicographically smaller than its ascending one is
// negated, plus the per-attribute flip flags. Both class strings come
// from fresh sorts of the column.
func canonicalOrientation(d *dataset.Dataset) (*dataset.Dataset, []bool) {
	flipped := make([]bool, d.NumAttrs())
	var view *dataset.Dataset
	for a := 0; a < d.NumAttrs(); a++ {
		if d.IsCategorical(a) {
			continue
		}
		if !lexLess(runs.ClassStringDescendingOf(d, a), runs.ClassStringOf(d, a)) {
			continue
		}
		flipped[a] = true
		if view == nil {
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

// checkOrders fails unless every numeric attribute's order in got is a
// permutation of the tuple indices that lists the same (value, label)
// sequence over gotD as want does over wantD. Indices of equal
// (value, label) pairs may come in any order: split search cannot tell
// them apart.
func checkOrders(t *testing.T, stage string, gotD *dataset.Dataset, got [][]int, wantD *dataset.Dataset, want [][]int) {
	t.Helper()
	n := wantD.NumTuples()
	for a := range want {
		if (got[a] == nil) != (want[a] == nil) {
			t.Fatalf("%s: attribute %d has order %v, want %v", stage, a, got[a] != nil, want[a] != nil)
		}
		if want[a] == nil {
			continue
		}
		if len(got[a]) != n {
			t.Fatalf("%s: attribute %d order has %d entries, want %d", stage, a, len(got[a]), n)
		}
		seen := make([]bool, n)
		for k, i := range got[a] {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("%s: attribute %d order is no permutation (index %d at %d)", stage, a, i, k)
			}
			seen[i] = true
			j := want[a][k]
			gv, gl := gotD.Cols[a][i], gotD.Labels[i]
			wv, wl := wantD.Cols[a][j], wantD.Labels[j]
			if gv != wv || gl != wl {
				t.Fatalf("%s: attribute %d position %d is (%v, %d), want (%v, %d)", stage, a, k, gv, gl, wv, wl)
			}
		}
	}
}

// checkPresort runs the builder's presort and orientation on d and
// compares them with the oracles: the raw presort, the flip flags, the
// flipped columns bit for bit, and the post-flip orders.
func checkPresort(t *testing.T, d *dataset.Dataset) {
	t.Helper()
	b := newBuilder(d, Config{}.withDefaults())
	checkOrders(t, "presort", d, b.orders, d, presortOracle(d))
	flipped := b.orient()
	wantD, wantFlipped := canonicalOrientation(d)
	if !slices.Equal(flipped, wantFlipped) {
		t.Fatalf("flips %v, want %v", flipped, wantFlipped)
	}
	for a := range wantD.Cols {
		for i, v := range wantD.Cols[a] {
			if math.Float64bits(b.d.Cols[a][i]) != math.Float64bits(v) {
				t.Fatalf("attribute %d tuple %d is %v after orientation, want %v", a, i, b.d.Cols[a][i], v)
			}
		}
	}
	if !slices.Contains(flipped, true) && b.d != d {
		t.Fatal("orientation copied the data without flipping an attribute")
	}
	checkOrders(t, "oriented", b.d, b.orders, wantD, presortOracle(wantD))
}

// presortFixture decodes fuzz input into a dataset of n tuples over k
// classes: three numeric columns and, when categorical is set, a
// categorical one. Column bytes cycle through data, so short inputs
// give heavy ties. Column 0 holds small signed integers, column 1
// mixes +0, -0 and a few halves, and column 2 spans exponents far
// apart so the radix sort touches many bytes.
func presortFixture(n, k int, categorical bool, data []byte) *dataset.Dataset {
	if len(data) == 0 {
		data = []byte{0}
	}
	classes := make([]string, k)
	for c := range classes {
		classes[c] = string(rune('A' + c))
	}
	names := []string{"ints", "zeros", "wide"}
	if categorical {
		names = append(names, "cat")
	}
	d := &dataset.Dataset{AttrNames: names, ClassNames: classes, Cols: make([][]float64, len(names)), Labels: make([]int, n)}
	at := func(i, j int) byte { return data[(i*5+j)%len(data)] }
	for i := 0; i < n; i++ {
		b0, b1, b2 := at(i, 0), at(i, 1), at(i, 2)
		d.Cols[0] = append(d.Cols[0], float64(int8(b0)>>3))
		v1 := float64(int(b1>>5)-4) / 2
		if b1&2 == 0 {
			v1 = math.Copysign(0, float64(int(b1&1)*-2+1))
		}
		d.Cols[1] = append(d.Cols[1], v1)
		d.Cols[2] = append(d.Cols[2], math.Ldexp(float64(int(b2&7)-4), int(b2>>3)*30-480))
		if categorical {
			d.Cols[3] = append(d.Cols[3], float64(at(i, 3)%3))
		}
		d.Labels[i] = int(at(i, 4)) % k
	}
	if categorical {
		if err := d.MarkCategorical(3, []string{"x", "y", "z"}); err != nil {
			panic(err)
		}
	}
	return d
}

// FuzzBuilderPresort checks the builder's radix presort and the
// orientation it reads off the presort against the comparison-sort and
// class-string oracles, across the radixMinLen edge, ±0, all-equal
// columns, negative values, many classes and a categorical column.
func FuzzBuilderPresort(f *testing.F) {
	f.Add(uint16(1), uint8(2), false, []byte{7})
	f.Add(uint16(300), uint8(2), false, []byte{0})
	f.Add(uint16(300), uint8(2), false, []byte{0, 1, 2, 3, 1, 0, 3})
	for _, n := range []uint16{255, 256, 257} {
		f.Add(n, uint8(2), false, []byte{0x81, 0x13, 0xfe, 0x40, 0x07, 0x99, 0x2c})
		f.Add(n, uint8(4), true, []byte{0xf0, 0x0f, 0x33, 0xcc, 0x55, 0xaa, 0x12, 0x34, 0x56, 0x78, 0x9a})
	}
	f.Add(uint16(1000), uint8(3), true, []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, n uint16, classes uint8, categorical bool, data []byte) {
		rows := int(n)%1024 + 1
		k := int(classes)%5 + 1
		d := presortFixture(rows, k, categorical, data)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		checkPresort(t, d)
	})
}

// TestBuilderPresortMatchesOracle runs the presort check over the
// relation the benchmark mines and a mirrored copy of it, which flips
// the attributes the original keeps.
func TestBuilderPresortMatchesOracle(t *testing.T) {
	d, err := synth.Covertype(rand.New(rand.NewSource(1)), 3000)
	if err != nil {
		t.Fatal(err)
	}
	checkPresort(t, d)
	checkPresort(t, mirrored(d))
}

// TestBuildAllocs is the allocation gate of the in-memory builder on
// the benchmark's shape, 20k covertype rows mined with Gini and
// MinLeaf 1: one Build must stay within 8 MB and 64k objects. With the
// in-place partition it takes 2.4-3.0 MB in 6k objects; growing fresh
// per-child index lists at every node took 48 MB in 260k.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("mines 20k rows")
	}
	d, err := synth.Covertype(rand.New(rand.NewSource(1)), 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinLeaf: 1, Criterion: Gini, Workers: 1}
	if _, err := Build(d, cfg); err != nil { // warm the sort scratch pool
		t.Fatal(err)
	}
	const maxBytes, maxObjects = 8 << 20, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(d, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("Build: %d objects, %.1f MB", objects, float64(bytes)/(1<<20))
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("Build allocates %d bytes in %d objects, want at most %d bytes and %d objects", bytes, objects, maxBytes, maxObjects)
	}
}

// TestBuildSpans pins the telemetry of one traced Build: the
// mine/build span and its presort and grow children, once each.
func TestBuildSpans(t *testing.T) {
	d, err := synth.Covertype(rand.New(rand.NewSource(2)), 500)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.Enable(reg)
	_, err = Build(d, Config{})
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int64{}
	for _, st := range reg.Snapshot().Spans {
		spans[st.Path] = st.Count
	}
	for _, path := range []string{"mine/build", "mine/build/presort", "mine/build/grow"} {
		if spans[path] != 1 {
			t.Errorf("span %s ran %d times, want 1 (spans %v)", path, spans[path], spans)
		}
	}
}
