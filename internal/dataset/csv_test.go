package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"privtree/internal/obs"
)

// readCSVOracle is the encoding/csv record loop ReadCSV used before the
// windowed line scanner. It is the oracle every CSV reader of the
// package is held to.
func readCSVOracle(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w: %w", err, ErrMalformedCSV)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("need at least one attribute and a class column, got %d columns: %w", len(header), ErrMalformedCSV)
	}
	attrs := header[:len(header)-1]
	d := New(attrs, nil)
	classIdx := map[string]int{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: %w", line, err, ErrMalformedCSV)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("line %d has %d fields, want %d: %w", line, len(rec), len(header), ErrMalformedCSV)
		}
		for a := 0; a < len(attrs); a++ {
			v, err := parseValue(rec[a])
			if err != nil {
				return nil, fmt.Errorf("line %d attribute %q: %w", line, attrs[a], err)
			}
			d.Cols[a] = append(d.Cols[a], v)
		}
		cls := rec[len(rec)-1]
		li, ok := classIdx[cls]
		if !ok {
			li = len(d.ClassNames)
			classIdx[cls] = li
			d.ClassNames = append(d.ClassNames, cls)
		}
		d.Labels = append(d.Labels, li)
	}
	return d, nil
}

// readCSVStream reads in through CSVSource, draining it with the given
// window size and block size into a dataset.
func readCSVStream(in string, window, chunk int) (*Dataset, error) {
	src, err := newCSVSource(strings.NewReader(in), window)
	if err != nil {
		return nil, err
	}
	col := NewCollector(src.Schema())
	for {
		blk, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := col.Write(blk); err != nil {
			return nil, err
		}
	}
	d := col.d
	d.ClassNames = append([]string(nil), src.Schema().ClassNames...)
	return d, nil
}

// sameCSVResult fails t unless got matches the oracle's want: both
// accept with bit-identical columns, labels and names, or both reject
// with the same sentinel.
func sameCSVResult(t *testing.T, name string, got *Dataset, gerr error, want *Dataset, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: err %v, oracle err %v", name, gerr, werr)
	}
	if werr != nil {
		for _, sentinel := range []error{ErrMalformedCSV, ErrNonFiniteValue} {
			if errors.Is(gerr, sentinel) != errors.Is(werr, sentinel) {
				t.Fatalf("%s: err %v, oracle err %v", name, gerr, werr)
			}
		}
		return
	}
	if !slices.Equal(got.AttrNames, want.AttrNames) || !slices.Equal(got.ClassNames, want.ClassNames) {
		t.Fatalf("%s: names %q %q, oracle %q %q", name, got.AttrNames, got.ClassNames, want.AttrNames, want.ClassNames)
	}
	if !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: labels %v, oracle %v", name, got.Labels, want.Labels)
	}
	for a := range want.Cols {
		if len(got.Cols[a]) != len(want.Cols[a]) {
			t.Fatalf("%s: attribute %d has %d values, oracle %d", name, a, len(got.Cols[a]), len(want.Cols[a]))
		}
		for i, v := range want.Cols[a] {
			if math.Float64bits(got.Cols[a][i]) != math.Float64bits(v) {
				t.Fatalf("%s: attribute %d row %d is %v, oracle %v", name, a, i, got.Cols[a][i], v)
			}
		}
	}
}

// checkReadersMatchOracle holds ReadCSV (at the default window and at
// the given windows, small enough to cut the input many times so the
// parallel merge runs, on 1 and 3 workers) and CSVSource against the
// oracle on in.
func checkReadersMatchOracle(t *testing.T, in string, windows ...int) {
	t.Helper()
	want, werr := readCSVOracle(strings.NewReader(in))
	got, gerr := ReadCSV(strings.NewReader(in))
	sameCSVResult(t, "ReadCSV", got, gerr, want, werr)
	for _, window := range windows {
		for _, workers := range []int{1, 3} {
			got, gerr := readCSV(strings.NewReader(in), window, workers)
			sameCSVResult(t, fmt.Sprintf("readCSV window %d workers %d", window, workers), got, gerr, want, werr)
		}
		got, gerr = readCSVStream(in, window, 3)
		sameCSVResult(t, fmt.Sprintf("CSVSource window %d", window), got, gerr, want, werr)
	}
}

// FuzzReadCSVMatchesStdlib holds the windowed readers to the
// encoding/csv oracle on arbitrary input.
func FuzzReadCSVMatchesStdlib(f *testing.F) {
	for _, seed := range []string{
		"a,b,class\n1,2,x\n3,4,y\n",
		"a,class\n\"1\",x\n2,\"y,z\"\n",     // quoted fields
		"a,class\n1,\"multi\nline\"\n2,x\n", // a quoted newline in a class name
		"a,class\r\n1,x\r\n2,y\r\n",         // \r\n line endings
		"a,class\n1,x\n2,y\r",               // a trailing \r at EOF
		"a,class\n\n1,x\n\r\n\n2,y",         // empty lines, no final \n
		"a,b,class\n1,x\n",                  // too few fields
		"a,class\n1,2,x\n",                  // too many fields
		"a,class\n 1,x\n",                   // a leading space
		"a,class\n1,x\"y\n",                 // a bare quote
		"a,class\n0x1p-2,x\n",               // a hex float
		"a,class\nNaN,x\n", "a,class\n+Inf,x\n", "a,class\n-Inf,x\n",
		"a,class\n1,x\ry\n",  // a bare \r inside a field
		"\n\na,class\n1,x\n", // empty lines before the header
		"a\n1\n",             // one column
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkReadersMatchOracle(t, in, 1, 7, 64)
	})
}

// bigCSV returns a CSV of n rows over 3 attributes whose class in row
// i is class(i).
func bigCSV(n int, class func(i int) string) string {
	var b strings.Builder
	b.WriteString("a,b,c,class\n")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s,%d,%s,%s\n", strconv.FormatFloat(rng.NormFloat64()*1e3, 'g', -1, 64),
			rng.Intn(100), strconv.FormatFloat(rng.Float64(), 'g', -1, 64), class(i))
	}
	return b.String()
}

// TestReadCSVQuotePastFirstWindow puts the first '"' in row 50,000,
// windows past the first, so the encoding/csv fallback takes over from
// a window the parallel parse stopped at.
func TestReadCSVQuotePastFirstWindow(t *testing.T) {
	in := bigCSV(60000, func(i int) string {
		switch {
		case i == 50000:
			return `"quoted, with comma"`
		case i%3 == 0:
			return "x"
		}
		return "y"
	})
	if len(in) < 4*csvWindow {
		t.Fatalf("input of %d bytes spans too few windows", len(in))
	}
	checkReadersMatchOracle(t, in, 4096)
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ClassNames[d.Labels[50000]]; got != "quoted, with comma" {
		t.Fatalf("row 50000 class %q", got)
	}
	// A malformed row after the quote reports its line.
	bad := in + "1,2,x\n"
	_, err = ReadCSV(strings.NewReader(bad))
	if !errors.Is(err, ErrMalformedCSV) || !strings.Contains(err.Error(), "line 60002") {
		t.Fatalf("short row after the fallback: err %v", err)
	}
}

// TestReadCSVLateClass introduces a class in the last window: the
// global class order stays first appearance.
func TestReadCSVLateClass(t *testing.T) {
	const n = 40000
	in := bigCSV(n, func(i int) string {
		switch {
		case i == n-3:
			return "late"
		case i%2 == 0:
			return "even"
		}
		return "odd"
	})
	checkReadersMatchOracle(t, in, 4096)
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"even", "odd", "late"}; !slices.Equal(d.ClassNames, want) {
		t.Fatalf("class order %q, want %q", d.ClassNames, want)
	}
	// A bad value in a late window fails with its line number.
	bad := strings.Replace(in, "late", "late\n1,2,x,z", 1)
	if _, err := ReadCSV(strings.NewReader(bad)); !errors.Is(err, ErrMalformedCSV) ||
		!strings.Contains(err.Error(), fmt.Sprintf("line %d", n)) {
		t.Fatalf("bad late row: err %v", err)
	}
}

// errAfter is a reader that fails once n bytes are read.
type errAfter struct {
	r   io.Reader
	n   int
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, e.err
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	n, err := e.r.Read(p)
	e.n -= n
	return n, err
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// readerOn is a reader that records the goroutines it is read on.
type readerOn struct {
	r  io.Reader
	on map[string]bool
}

func (g *readerOn) Read(p []byte) (int, error) {
	g.on[goid()] = true
	return g.r.Read(p)
}

// TestReadCSVWorkersBound checks ReadCSVWorkers honours its worker
// count: at 1 every window is read and parsed on the calling
// goroutine, at 2 the windows are read on another one.
func TestReadCSVWorkersBound(t *testing.T) {
	in := bigCSV(20000, func(i int) string { return "x" })
	for _, workers := range []int{1, 2} {
		g := &readerOn{r: strings.NewReader(in), on: map[string]bool{}}
		d, err := readCSV(g, 4096, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumTuples() != 20000 {
			t.Fatalf("workers=%d: %d rows", workers, d.NumTuples())
		}
		if serial := len(g.on) == 1 && g.on[goid()]; serial != (workers == 1) {
			t.Fatalf("workers=%d: read on goroutines %v, caller %s", workers, g.on, goid())
		}
	}
}

// TestReadCSVReadErrorSurvives checks a read error past the first
// window keeps its identity through the windowed reader.
func TestReadCSVReadErrorSurvives(t *testing.T) {
	in := bigCSV(20000, func(i int) string { return "x" })
	boom := errors.New("disk on fire")
	for _, cut := range []int{10, csvWindow + 100, len(in) - 5} {
		_, err := ReadCSV(&errAfter{r: strings.NewReader(in), n: cut, err: boom})
		if !errors.Is(err, boom) {
			t.Fatalf("cut at %d: err %v, want the read error", cut, err)
		}
	}
}

// encodedCSV returns a CSV shaped like an encoded 20k-row covertype
// relation: 10 attributes of shortest-round-trip floats (about 18
// characters each) and 7 classes.
func encodedCSV(t testing.TB, n int) []byte {
	t.Helper()
	attrs := make([]string, 10)
	for a := range attrs {
		attrs[a] = fmt.Sprintf("attr%d", a)
	}
	classes := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	d := New(attrs, classes)
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, len(attrs))
	for i := 0; i < n; i++ {
		for a := range row {
			row[a] = rng.Float64() * 1e4
		}
		if err := d.Append(row, rng.Intn(len(classes))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVAllocs holds ReadCSV of a 20k-row encoded relation to
// 8 MB and 2,000 heap objects.
func TestReadCSVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	in := encodedCSV(t, 20000)
	ReadCSV(bytes.NewReader(in)) // warm the window pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ReadCSV(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTuples() != 20000 {
		t.Fatalf("%d rows", d.NumTuples())
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("ReadCSV of %d bytes: %.1f MB in %d objects", len(in), float64(bytes)/(1<<20), objects)
	if bytes > 8<<20 || objects > 2000 {
		t.Fatalf("ReadCSV allocated %d bytes in %d objects, want at most 8 MB and 2000", bytes, objects)
	}
}

// TestCSVFormatMatchesStdlib holds the row formatter to csv.Writer with
// FormatFloat, at several worker counts and block sizes, on values at
// the edges of the 'g' format and on class names that need quoting.
func TestCSVFormatMatchesStdlib(t *testing.T) {
	classes := []string{"plain", "a,b", `say "hi"`, " lead", `\.`, "", "two\nlines", "cr\rin", "tab\t"}
	special := []float64{
		math.Copysign(0, -1), 0, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e21, 999999999999999999999, 1e20, 1e-5, 1e-4, 0.1 + 0.2, 1.0 / 3, -123456789.125,
	}
	rng := rand.New(rand.NewSource(9))
	d := New([]string{"x", "y, z", "w"}, classes)
	row := make([]float64, 3)
	for i := 0; i < 5000; i++ {
		for a := range row {
			if rng.Intn(3) == 0 {
				row[a] = special[rng.Intn(len(special))]
			} else {
				row[a] = math.Float64frombits(rng.Uint64())
				if !finite(row[a]) {
					row[a] = rng.NormFloat64()
				}
			}
		}
		if err := d.Append(row, rng.Intn(len(classes))); err != nil {
			t.Fatal(err)
		}
	}

	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(append(append([]string(nil), d.AttrNames...), "class"))
	for i := 0; i < d.NumTuples(); i++ {
		rec := make([]string, 0, 4)
		for a := range d.Cols {
			rec = append(rec, strconv.FormatFloat(d.Cols[a][i], 'g', -1, 64))
		}
		cw.Write(append(rec, d.ClassNames[d.Labels[i]]))
	}
	cw.Flush()

	var got bytes.Buffer
	if err := d.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteCSV differs from csv.Writer")
	}
	for _, workers := range []int{1, 2, 7} {
		for _, chunk := range []int{1, 3, 4096} {
			got.Reset()
			src := NewDatasetSource(d)
			sink := NewCSVSink(&got, src.Schema())
			sink.Workers = workers
			drain(t, src, sink, chunk)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("workers=%d chunk=%d: CSVSink differs from csv.Writer", workers, chunk)
			}
		}
	}
}

// TestCSVSinkBadLabelWritesNothing checks a Write failing on a label
// mid-block leaves no part of the block (nor the header) behind.
func TestCSVSinkBadLabelWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf, &Schema{AttrNames: []string{"a"}, ClassNames: []string{"x"}})
	blk := &Block{Cols: [][]float64{make([]float64, 5000)}, Labels: make([]int, 5000)}
	blk.Labels[4000] = 3
	if err := sink.Write(blk); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("err %v, want ErrBadLabel", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,class\n" {
		t.Fatalf("failed Write left %d bytes behind the header", len(got)-len("a,class\n"))
	}
}

// TestCSVSinkAllocs holds a warm CSVSink to 16 heap objects per
// 4,096-row block.
func TestCSVSinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	d, err := ReadCSV(bytes.NewReader(encodedCSV(t, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCSVSink(io.Discard, d.Schema())
	blk := &Block{Cols: d.Cols, Labels: d.Labels}
	sink.Write(blk) // warm the buffers
	allocs := testing.AllocsPerRun(10, func() {
		if err := sink.Write(blk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("CSVSink.Write allocates %.0f objects per 4,096-row block, want at most 16", allocs)
	}
}

// TestReadCSVSpan checks a traced ReadCSV records its io/parse span
// with the rows and bytes it read.
func TestReadCSVSpan(t *testing.T) {
	in := encodedCSV(t, 3000)
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	if _, err := readCSV(bytes.NewReader(in), 4096, 0); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Spans) == 0 || snap.Spans[len(snap.Spans)-1].Path != "io/parse" {
		t.Fatalf("spans %+v, want io/parse last", snap.Spans)
	}
	if got := snap.Counters["io.parse.rows"]; got != 3000 {
		t.Errorf("io.parse.rows = %d, want 3000", got)
	}
	if got := snap.Counters["io.parse.bytes"]; got != int64(len(in)) {
		t.Errorf("io.parse.bytes = %d, want %d", got, len(in))
	}
}
