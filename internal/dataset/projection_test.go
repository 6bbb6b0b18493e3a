package dataset

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSortedProjection is the reference implementation the fast paths
// are checked against: the pre-optimization reflective sort by
// (Value, Label).
func refSortedProjection(d *Dataset, a int) []ProjectedTuple {
	out := d.Projection(a)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value < out[j].Value
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// randomDataset builds a one-attribute dataset of n tuples whose
// values are drawn from a domain of the given cardinality (ties are
// the interesting case) across k class labels.
func randomDataset(t *testing.T, rng *rand.Rand, n, domain, k int) *Dataset {
	t.Helper()
	classes := make([]string, k)
	for i := range classes {
		classes[i] = string(rune('A' + i))
	}
	d := New([]string{"a"}, classes)
	for i := 0; i < n; i++ {
		v := float64(rng.Intn(domain)) - float64(domain)/2
		if rng.Intn(4) == 0 {
			v += 0.25 // mix in fractional values
		}
		if err := d.Append([]float64{v}, rng.Intn(k)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestSortedProjectionMatchesReference drives both sort paths — the
// comparison sort below radixMinLen and the radix sort above it —
// against the reference ordering over randomized datasets with heavy
// ties, negative values, and many labels.
func TestSortedProjectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{0, 1, 2, 3, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 5000}
	for _, n := range sizes {
		for _, domain := range []int{1, 2, 7, 1000} {
			for _, k := range []int{1, 2, 7} {
				d := randomDataset(t, rng, n, domain, k)
				want := refSortedProjection(d, 0)
				got := d.SortedProjection(0)
				if len(got) != len(want) {
					t.Fatalf("n=%d domain=%d k=%d: len %d, want %d", n, domain, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d domain=%d k=%d: [%d] = %+v, want %+v", n, domain, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortedProjectionIntoReusesScratch pins that a reused scratch
// survives columns of different lengths and contents, and that the
// result matches the fresh-allocation path exactly.
func TestSortedProjectionIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s ProjScratch
	for _, n := range []int{900, 5, 2000, 0, 700, 2000} {
		d := randomDataset(t, rng, n, 13, 3)
		got := d.SortedProjectionInto(0, &s)
		want := refSortedProjection(d, 0)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: [%d] = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// TestSortedProjectionNegativeZero pins the -0.0 fold: the radix key
// must rank -0.0 and +0.0 as equal values (matching the < comparison,
// under which they tie) and break the tie by label alone.
func TestSortedProjectionNegativeZero(t *testing.T) {
	d := New([]string{"a"}, []string{"L", "H"})
	negZero := math.Copysign(0, -1)
	for i := 0; i < 2*radixMinLen; i++ {
		v := 0.0
		if i%2 == 0 {
			v = negZero
		}
		if err := d.Append([]float64{v}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	p := d.SortedProjection(0)
	for i := 1; i < len(p); i++ {
		if p[i-1].Label > p[i].Label {
			t.Fatalf("labels not canonical across the -0/+0 tie block: %d then %d at %d", p[i-1].Label, p[i].Label, i)
		}
	}
}

// TestSortedProjectionIntoAllocs is the allocation regression gate for
// the profile fast path: with a warmed scratch, sorting a large column
// (radix path) and a small one (comparison path) must not allocate at
// all — reintroducing a per-call projection copy fails here.
func TestSortedProjectionIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 4096} {
		d := randomDataset(t, rng, n, 50, 3)
		var s ProjScratch
		d.SortedProjectionInto(0, &s) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			d.SortedProjectionInto(0, &s)
		})
		if allocs != 0 {
			t.Errorf("n=%d: SortedProjectionInto allocates %.1f per call with warm scratch, want 0", n, allocs)
		}
	}
}

// TestSortOrderMatchesReference drives SortOrder's comparison and
// radix paths against the reference ordering: the indices it returns
// must list the reference (Value, Label) sequence, with equal pairs in
// index order, and a warmed scratch must not allocate.
func TestSortOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s ProjScratch
	for _, n := range []int{1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 3000} {
		for _, domain := range []int{1, 7, 1000} {
			for _, k := range []int{1, 2, 7} {
				d := randomDataset(t, rng, n, domain, k)
				byLabel := make([]int, n)
				d.LabelOrder(byLabel)
				order := make([]int, n)
				s.SortOrder(d.Cols[0], byLabel, order)
				want := refSortedProjection(d, 0)
				for j, i := range order {
					got := ProjectedTuple{Value: d.Cols[0][i], Label: d.Labels[i]}
					if got != want[j] {
						t.Fatalf("n=%d domain=%d k=%d: [%d] = %+v, want %+v", n, domain, k, j, got, want[j])
					}
					if j > 0 && got == want[j-1] && order[j-1] > i {
						t.Fatalf("n=%d domain=%d k=%d: equal pairs out of index order at %d", n, domain, k, j)
					}
				}
				allocs := testing.AllocsPerRun(5, func() { s.SortOrder(d.Cols[0], byLabel, order) })
				if allocs != 0 {
					t.Errorf("n=%d: SortOrder allocates %.1f per call with warm scratch, want 0", n, allocs)
				}
			}
		}
	}
}
