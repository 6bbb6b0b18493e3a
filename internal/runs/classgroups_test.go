package runs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"privtree/internal/dataset"
)

func TestGroupClassesBasics(t *testing.T) {
	if g := GroupClasses(nil, nil, 2); g != nil {
		t.Fatalf("empty projection: got %v, want nil", g)
	}
	values := []float64{2, 1, 2, 1, 1, 3}
	labels := []int{0, 1, 1, 1, 0, 0}
	got := GroupClasses(values, labels, 2)
	want := []ClassGroup{
		{Value: 1, Counts: []int{1, 2}},
		{Value: 2, Counts: []int{1, 1}},
		{Value: 3, Counts: []int{1, 0}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got[0].Rows() != 3 || got[2].Rows() != 1 {
		t.Fatalf("Rows: got %d/%d, want 3/1", got[0].Rows(), got[2].Rows())
	}
}

// TestMergeClassGroupsOracle checks the merge against GroupClasses over
// the concatenation, on random projections split into random shards —
// including empty shards.
func TestMergeClassGroupsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		values := make([]float64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = float64(rng.Intn(12)) // heavy ties
			labels[i] = rng.Intn(3)
		}
		want := GroupClasses(values, labels, 3)
		var shards [][]ClassGroup
		for lo := 0; lo <= n; {
			hi := lo + rng.Intn(60)
			if hi > n {
				hi = n
			}
			shards = append(shards, GroupClasses(values[lo:hi], labels[lo:hi], 3))
			if hi == n {
				break
			}
			lo = hi
		}
		got := MergeClassGroups(shards)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
	}
}

// TestFlipClassGroups checks the in-place flip equals grouping the
// negated projection.
func TestFlipClassGroups(t *testing.T) {
	values := []float64{1, 2, 2, 5}
	labels := []int{0, 1, 0, 1}
	groups := GroupClasses(values, labels, 2)
	FlipClassGroups(groups)
	neg := make([]float64, len(values))
	for i, v := range values {
		neg[i] = -v
	}
	want := GroupClasses(neg, labels, 2)
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("flipped %v, want %v", groups, want)
	}
	FlipClassGroups(nil) // no-op on empty
}

// TestDescendingClassStringLessOracle checks the RLE comparison against
// the materialized class strings of random single-attribute relations.
func TestDescendingClassStringLessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		d := dataset.New([]string{"x"}, []string{"a", "b", "c"})
		values := make([]float64, n)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			values[i] = float64(rng.Intn(6))
			labels[i] = rng.Intn(3)
			if err := d.Append([]float64{values[i]}, labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		asc := ClassStringOf(d, 0)
		desc := ClassStringDescendingOf(d, 0)
		want := lexLessInts(desc, asc)
		groups := GroupClasses(values, labels, 3)
		if got := DescendingClassStringLess(groups); got != want {
			t.Fatalf("trial %d: DescendingClassStringLess = %v, want %v\nasc %v\ndesc %v",
				trial, got, want, asc, desc)
		}
	}
}

// lexLessInts is strict lexicographic comparison of equal-length label
// strings.
func lexLessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestDescendingClassStringLessEdge pins the boundary cases: empty
// groups and a palindromic string (equal either way).
func TestDescendingClassStringLessEdge(t *testing.T) {
	if DescendingClassStringLess(nil) {
		t.Fatal("empty groups: want false")
	}
	// One value, mixed labels: asc == desc exactly.
	groups := GroupClasses([]float64{4, 4, 4}, []int{1, 0, 1}, 2)
	if DescendingClassStringLess(groups) {
		t.Fatal("single-value groups: strings are equal, want false")
	}
}

// groupClassesOracle is the comparison-sort reference for GroupClasses:
// sort the row indices by value, then open a fresh histogram per
// distinct value.
func groupClassesOracle(values []float64, labels []int, nClasses int) []ClassGroup {
	if len(values) == 0 {
		return nil
	}
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return values[order[x]] < values[order[y]] })
	var out []ClassGroup
	for _, i := range order {
		v := values[i]
		if n := len(out); n > 0 && out[n-1].Value == v {
			out[n-1].Counts[labels[i]]++
			continue
		}
		c := make([]int, nClasses)
		c[labels[i]]++
		out = append(out, ClassGroup{Value: v, Counts: c})
	}
	return out
}

// sameGroups compares group runs by value equality (so -0 and +0,
// which share a group, match either way) and exact counts.
func sameGroups(got, want []ClassGroup) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Value != want[i].Value || !reflect.DeepEqual(got[i].Counts, want[i].Counts) {
			return false
		}
	}
	return true
}

// FuzzGroupClasses checks the radix, arena-backed GroupClasses and
// MergeClassGroups against the comparison-sort oracle. The input is
// read as 9-byte rows (8 bytes of float bits, 1 label byte; NaN rows
// are dropped, as every reader drops them) and tiled reps times with
// shifted labels, so short inputs still reach the radix path. The
// tiled projection is cut into shards of shardRows rows for the merge.
func FuzzGroupClasses(f *testing.F) {
	row := func(v float64, label byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		return append(b, label)
	}
	cat := func(rows ...[]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	f.Add(cat(row(0, 0), row(math.Copysign(0, -1), 1), row(0, 1), row(-1, 0)), uint8(2), uint8(63), uint8(7))
	f.Add(cat(row(3.5, 0), row(3.5, 1), row(3.5, 2)), uint8(3), uint8(100), uint8(50))
	f.Add(cat(row(1, 0), row(2, 57), row(2, 199), row(-7, 130), row(1e300, 3)), uint8(200), uint8(60), uint8(13))
	f.Add(row(42, 0), uint8(1), uint8(0), uint8(0))
	f.Add(cat(row(math.Inf(1), 0), row(math.Inf(-1), 1), row(5e-324, 0), row(-5e-324, 1)), uint8(2), uint8(80), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nClasses, reps, shardRows uint8) {
		nc := int(nClasses)%250 + 1
		var values []float64
		var labels []int
		for r := 0; r <= int(reps)%64; r++ {
			for i := 0; i+9 <= len(data); i += 9 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
				if v != v {
					continue
				}
				values = append(values, v)
				labels = append(labels, (int(data[i+8])+r)%nc)
			}
		}
		want := groupClassesOracle(values, labels, nc)
		got := GroupClasses(values, labels, nc)
		if !sameGroups(got, want) {
			t.Fatalf("GroupClasses over %d rows differs from the oracle:\n got %v\nwant %v", len(values), got, want)
		}
		step := int(shardRows)%97 + 1
		var shards [][]ClassGroup
		for lo := 0; lo < len(values); lo += step {
			hi := min(lo+step, len(values))
			shards = append(shards, GroupClasses(values[lo:hi], labels[lo:hi], nc))
		}
		if merged := MergeClassGroups(shards); !sameGroups(merged, want) {
			t.Fatalf("MergeClassGroups of %d shards differs from the oracle:\n got %v\nwant %v", len(shards), merged, want)
		}
	})
}
