package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// figure1 builds the paper's Figure 1(a) training data: attributes age
// and salary, class labels High/Low.
func figure1(t *testing.T) *Dataset {
	t.Helper()
	d := New([]string{"age", "salary"}, []string{"High", "Low"})
	rows := []struct {
		age, salary float64
		label       int
	}{
		{17, 30000, 0},
		{20, 42000, 0},
		{23, 50000, 0},
		{32, 35000, 1},
		{43, 45000, 0},
		{68, 20000, 1},
	}
	for _, r := range rows {
		if err := d.Append([]float64{r.age, r.salary}, r.label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAppendAndAccessors(t *testing.T) {
	d := figure1(t)
	if d.NumAttrs() != 2 || d.NumTuples() != 6 || d.NumClasses() != 2 {
		t.Fatalf("dims = %d,%d,%d", d.NumAttrs(), d.NumTuples(), d.NumClasses())
	}
	tp := d.Tuple(2)
	if tp[0] != 23 || tp[1] != 50000 {
		t.Errorf("Tuple(2) = %v", tp)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAppendErrors(t *testing.T) {
	d := New([]string{"a"}, []string{"x"})
	if err := d.Append([]float64{1, 2}, 0); err == nil {
		t.Error("expected arity error")
	}
	if err := d.Append([]float64{1}, 5); err == nil {
		t.Error("expected label range error")
	}
	if err := d.Append([]float64{1}, -1); err == nil {
		t.Error("expected negative label error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := figure1(t)
	d.Cols[0] = d.Cols[0][:3]
	if err := d.Validate(); err == nil {
		t.Error("expected column length error")
	}
	d = figure1(t)
	d.Labels[0] = 9
	if err := d.Validate(); err == nil {
		t.Error("expected label range error")
	}
	d = figure1(t)
	d.AttrNames = d.AttrNames[:1]
	if err := d.Validate(); err == nil {
		t.Error("expected name/column mismatch error")
	}
}

func TestClone(t *testing.T) {
	d := figure1(t)
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Cols[0][0] = 999
	c.Labels[1] = 1
	if d.Cols[0][0] == 999 || d.Labels[1] == 1 {
		t.Error("clone shares storage with original")
	}
}

func TestAttrIndex(t *testing.T) {
	d := figure1(t)
	if d.AttrIndex("salary") != 1 {
		t.Error("salary index wrong")
	}
	if d.AttrIndex("nope") != -1 {
		t.Error("missing attribute should be -1")
	}
}

func TestActiveDomain(t *testing.T) {
	d := New([]string{"a"}, []string{"x", "y"})
	for _, v := range []float64{5, 1, 5, 3, 1} {
		if err := d.Append([]float64{v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	dom := d.ActiveDomain(0)
	want := []float64{1, 3, 5}
	if len(dom) != len(want) {
		t.Fatalf("domain = %v", dom)
	}
	for i := range want {
		if dom[i] != want[i] {
			t.Fatalf("domain = %v, want %v", dom, want)
		}
	}
	empty := New([]string{"a"}, []string{"x"})
	if empty.ActiveDomain(0) != nil {
		t.Error("empty active domain should be nil")
	}
}

func TestSortedProjectionOrderAndTies(t *testing.T) {
	d := New([]string{"a"}, []string{"L", "H"})
	// Two tuples share value 7 with different labels: canonical order
	// must put the lower label first.
	vals := []float64{7, 3, 7, 9}
	labels := []int{1, 0, 0, 1}
	for i := range vals {
		if err := d.Append([]float64{vals[i]}, labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	p := d.SortedProjection(0)
	wantVals := []float64{3, 7, 7, 9}
	wantLabels := []int{0, 0, 1, 1}
	for i := range p {
		if p[i].Value != wantVals[i] || p[i].Label != wantLabels[i] {
			t.Fatalf("sorted projection = %v", p)
		}
	}
}

func TestClassCounts(t *testing.T) {
	d := figure1(t)
	counts := d.ClassCounts()
	if counts[0] != 4 || counts[1] != 2 {
		t.Errorf("ClassCounts = %v, want [4 2]", counts)
	}
}

func TestSubsetAndSplit(t *testing.T) {
	d := figure1(t)
	s := d.Subset([]int{5, 0})
	if s.NumTuples() != 2 || s.Cols[0][0] != 68 || s.Cols[0][1] != 17 {
		t.Errorf("Subset wrong: %v", s.Cols[0])
	}
	left, right := d.Split(0, 27.5)
	if left.NumTuples() != 3 || right.NumTuples() != 3 {
		t.Fatalf("split sizes = %d,%d", left.NumTuples(), right.NumTuples())
	}
	for _, v := range left.Cols[0] {
		if v > 27.5 {
			t.Errorf("left contains %v > threshold", v)
		}
	}
	for _, v := range right.Cols[0] {
		if v <= 27.5 {
			t.Errorf("right contains %v <= threshold", v)
		}
	}
}

func TestEqual(t *testing.T) {
	d := figure1(t)
	if !d.Equal(d.Clone()) {
		t.Error("dataset should equal its clone")
	}
	c := d.Clone()
	c.Cols[1][3] = 1
	if d.Equal(c) {
		t.Error("value change not detected")
	}
	c = d.Clone()
	c.Labels[0] = 1
	if d.Equal(c) {
		t.Error("label change not detected")
	}
	c = d.Clone()
	c.AttrNames[0] = "other"
	if d.Equal(c) {
		t.Error("schema change not detected")
	}
	c = d.Clone()
	c.ClassNames[0] = "Other"
	if d.Equal(c) {
		t.Error("class rename not detected")
	}
	small := New([]string{"age", "salary"}, []string{"High", "Low"})
	if d.Equal(small) {
		t.Error("size change not detected")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := figure1(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Error("CSV round trip lost data")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"one column", "class\nx\n"},
		{"bad number", "a,class\nfoo,x\n"},
		{"ragged", "a,b,class\n1,2,x\n1,x\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadCSVClassOrder(t *testing.T) {
	in := "a,class\n1,Low\n2,High\n3,Low\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.ClassNames[0] != "Low" || d.ClassNames[1] != "High" {
		t.Errorf("class order = %v", d.ClassNames)
	}
	if d.Labels[0] != 0 || d.Labels[1] != 1 || d.Labels[2] != 0 {
		t.Errorf("labels = %v", d.Labels)
	}
}

func TestStatsIntegerAttribute(t *testing.T) {
	d := New([]string{"a"}, []string{"x"})
	for _, v := range []float64{1, 2, 5, 5, 9} {
		if err := d.Append([]float64{v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats(0)
	if s.Min != 1 || s.Max != 9 || s.RangeWidth != 8 {
		t.Errorf("range stats = %+v", s)
	}
	if s.Distinct != 4 {
		t.Errorf("Distinct = %d, want 4", s.Distinct)
	}
	// Grid 1..9 has 9 points, 4 present -> 5 discontinuities.
	if !s.IntegerValued || s.Discontinuities != 5 {
		t.Errorf("Discontinuities = %d (int=%v), want 5", s.Discontinuities, s.IntegerValued)
	}
	if s.GridSize() != 9 {
		t.Errorf("GridSize = %d, want 9", s.GridSize())
	}
}

func TestStatsRealAttribute(t *testing.T) {
	d := New([]string{"a"}, []string{"x"})
	for _, v := range []float64{1.5, 2.25, 3} {
		if err := d.Append([]float64{v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats(0)
	if s.IntegerValued {
		t.Error("should not be integer valued")
	}
	if s.Discontinuities != 0 {
		t.Error("non-integer attrs report 0 discontinuities")
	}
	if s.GridSize() != 3 {
		t.Errorf("GridSize = %d, want distinct count 3", s.GridSize())
	}
}

func TestStatsEmpty(t *testing.T) {
	d := New([]string{"a"}, []string{"x"})
	s := d.Stats(0)
	if s != (BasicStats{}) {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestReadersRejectNonFinite checks that every way into a dataset — the
// CSV readers, both shard formats and Validate — refuses a NaN or ±Inf
// attribute value with ErrNonFiniteValue, and still accepts the largest
// finite values. A tree over a non-finite value never finishes its
// split scan.
func TestReadersRejectNonFinite(t *testing.T) {
	for _, field := range []string{"NaN", "Inf", "+Inf", "-Inf", "inf", "-infinity"} {
		in := "a,b,class\n1,2,x\n3," + field + ",y\n"
		if _, err := ReadCSV(strings.NewReader(in)); !errors.Is(err, ErrNonFiniteValue) {
			t.Errorf("ReadCSV %s: err %v, want ErrNonFiniteValue", field, err)
		}
		src, err := NewCSVSource(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(0); !errors.Is(err, ErrNonFiniteValue) {
			t.Errorf("CSVSource %s: err %v, want ErrNonFiniteValue", field, err)
		}
	}
	if _, err := ReadCSV(strings.NewReader("a,class\n1.5e308,x\n-1.7e308,y\n")); err != nil {
		t.Errorf("ReadCSV large finite values: %v", err)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := New([]string{"a", "b"}, []string{"x", "y"})
		for i, row := range [][]float64{{1, 2}, {3, bad}} {
			if err := d.Append(row, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Validate(); !errors.Is(err, ErrNonFiniteValue) {
			t.Errorf("Validate %v: err %v, want ErrNonFiniteValue", bad, err)
		}
		for _, format := range []string{FormatCSV, FormatBin} {
			prefix := filepath.Join(t.TempDir(), "bad")
			var sink ShardSink
			var err error
			if format == FormatCSV {
				sink, err = NewShardedCSVSink(prefix, 10, d.Schema())
			} else {
				sink, err = NewBinaryShardSink(prefix, 10, d.Schema())
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Write(&Block{Cols: d.Cols, Labels: d.Labels}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			ss, err := OpenSharded(sink.ManifestPath())
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				_, err = ss.Next(0)
			}
			ss.Close()
			if err == io.EOF || !errors.Is(err, ErrNonFiniteValue) {
				t.Errorf("%s shards %v: err %v, want ErrNonFiniteValue", format, bad, err)
			}
		}
	}
}
