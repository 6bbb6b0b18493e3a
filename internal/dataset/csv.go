package dataset

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"privtree/internal/obs"
	"privtree/internal/parallel"
)

// The CSV codec: one row formatter and one line scanner behind every
// CSV reader and writer of the package (ReadCSV, WriteCSV, CSVSource,
// CSVSink and the CSV shard reader and sink).
//
// Reading cuts the input into windows that end on a line boundary and
// splits their lines at ',' without encoding/csv. Without a '"' that
// is all CSV can mean, so the scanner reproduces encoding/csv exactly:
// a '\r' before a '\n' (or before EOF) is dropped, empty lines are
// skipped, and every record must have the first record's field count.
// From the first window that holds a '"' on, the rest of the input
// goes through encoding/csv; that window starts on a row boundary,
// because no earlier byte was a quote. ReadCSV parses the quote-free
// windows in parallel and merges them in window order.
//
// Writing formats values with strconv.AppendFloat. A finite 'g' number
// holds only [0-9.e+-] (NaN and ±Inf only letters and signs), so no
// value ever needs quoting; class names and the header are escaped
// once each by encoding/csv, whose quoting rule is per field and
// context-free. The bytes equal csv.Writer's.

// csvWindow is the size of one read window. A line longer than a
// window grows it.
const csvWindow = 256 << 10

// windowPool recycles window buffers across readers.
var windowPool = sync.Pool{New: func() any { b := make([]byte, 0, csvWindow); return &b }}

func getWindow() []byte { return (*windowPool.Get().(*[]byte))[:0] }

func putWindow(b []byte) {
	if b != nil {
		b = b[:0]
		windowPool.Put(&b)
	}
}

// windowReader cuts an io.Reader into windows that each end just after
// a '\n'; the last one ends at EOF.
type windowReader struct {
	r     io.Reader
	size  int    // window size; 0 means csvWindow
	carry []byte // bytes read past the last window's final '\n'
	err   error  // the sticky read error, io.EOF at the end
	n     int64  // bytes read
}

// next reads the next window into buf's storage (doubling the window
// for a line longer than it) and returns it. It returns io.EOF once the
// input is exhausted, and a read error only after the windows before
// it; the partial line the error cut off is dropped.
func (w *windowReader) next(buf []byte) ([]byte, error) {
	if w.size <= 0 {
		w.size = csvWindow
	}
	buf = append(buf[:0], w.carry...)
	w.carry = w.carry[:0]
	for limit := w.size; ; limit *= 2 {
		buf = slices.Grow(buf, max(limit-len(buf), 0))
		for len(buf) < limit && w.err == nil {
			n, err := w.r.Read(buf[len(buf):limit])
			buf, w.err = buf[:len(buf)+n], err
			w.n += int64(n)
		}
		cut := bytes.LastIndexByte(buf, '\n') + 1
		if w.err == io.EOF {
			cut = len(buf)
		}
		if cut > 0 {
			w.carry = append(w.carry, buf[cut:]...)
			return buf[:cut], nil
		}
		if w.err != nil {
			return nil, w.err
		}
	}
}

// Read serves what next has not windowed yet: the carry, then the
// rest of the input. The encoding/csv fallback reads through it.
func (w *windowReader) Read(p []byte) (int, error) {
	if len(w.carry) > 0 {
		n := copy(p, w.carry)
		w.carry = w.carry[n:]
		return n, nil
	}
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.r.Read(p)
	w.n += int64(n)
	return n, err
}

// lineScanner is the line scanner: it splits the records of one
// quote-free window.
type lineScanner struct {
	win    []byte
	line   int // lines consumed: the line number of the last record
	fields [][]byte
}

// next returns the next record of the window, or io.EOF at its end. A
// record with other than want fields (want > 0) is an error. The
// fields alias the window and are valid until the next call.
func (s *lineScanner) next(want int) ([][]byte, error) {
	for len(s.win) > 0 {
		line := s.win
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, s.win = line[:i], line[i+1:]
		} else {
			s.win = nil
		}
		s.line++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		s.fields = s.fields[:0]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				break
			}
			s.fields = append(s.fields, line[:i])
			line = line[i+1:]
		}
		s.fields = append(s.fields, line)
		if want > 0 && len(s.fields) != want {
			return nil, fmt.Errorf("%d fields, want %d: %w", len(s.fields), want, ErrMalformedCSV)
		}
		return s.fields, nil
	}
	return nil, io.EOF
}

// csvReader yields the records of one CSV input serially: the line
// scanner over quote-free windows, then encoding/csv from the first
// window that holds a '"'.
type csvReader struct {
	w   windowReader
	buf []byte // window storage
	sc  lineScanner
	nf  int         // fields per record, set by the first record
	cr  *csv.Reader // the fallback, once a window held a quote
	rec [][]byte    // the fallback's record
}

// next returns the next record, or io.EOF after the last. Errors carry
// their line and ErrMalformedCSV. The record is valid until the next
// call.
func (c *csvReader) next() ([][]byte, error) {
	for c.cr == nil {
		rec, err := c.sc.next(c.nf)
		if err == nil {
			c.nf = len(rec)
			return rec, nil
		}
		if err != io.EOF {
			return nil, fmt.Errorf("line %d: %w", c.sc.line, err)
		}
		if c.buf == nil {
			c.buf = getWindow()
		}
		win, err := c.w.next(c.buf)
		if err == io.EOF {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w: %w", c.sc.line+1, err, ErrMalformedCSV)
		}
		c.buf = win
		if bytes.IndexByte(win, '"') >= 0 {
			c.fallback(win)
		} else {
			c.sc.win = win
		}
	}
	rec, err := c.cr.Read()
	if err == io.EOF {
		return nil, err
	}
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += c.sc.line
			pe.Line += c.sc.line
			return nil, fmt.Errorf("%w: %w", err, ErrMalformedCSV)
		}
		return nil, fmt.Errorf("reading: %w: %w", err, ErrMalformedCSV)
	}
	c.rec, c.nf = c.rec[:0], len(rec)
	for _, f := range rec {
		c.rec = append(c.rec, []byte(f))
	}
	return c.rec, nil
}

// fallback hands the input from win on to encoding/csv. win starts on
// a row boundary: no byte before it was a quote.
func (c *csvReader) fallback(win []byte) {
	c.cr = csv.NewReader(io.MultiReader(bytes.NewReader(win), &c.w))
	c.cr.FieldsPerRecord = c.nf
	c.cr.ReuseRecord = true
}

// line returns the line number of the last record returned.
func (c *csvReader) line() int {
	if c.cr != nil {
		l, _ := c.cr.FieldPos(0)
		return c.sc.line + l
	}
	return c.sc.line
}

// release returns the window buffer to the pool; c must not be used
// after.
func (c *csvReader) release() {
	putWindow(c.buf)
	c.buf, c.sc.win = nil, nil
}

// readHeader reads c's first record as a header of at least one
// attribute and the class column.
func readHeader(c *csvReader) ([]string, error) {
	rec, err := c.next()
	if err == io.EOF {
		err = fmt.Errorf("%w: %w", err, ErrMalformedCSV)
	}
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if len(rec) < 2 {
		return nil, fmt.Errorf("need at least one attribute and a class column, got %d columns: %w", len(rec), ErrMalformedCSV)
	}
	header := make([]string, len(rec))
	for i, f := range rec {
		header[i] = string(f)
	}
	return header, nil
}

// parseRow appends the attribute fields of rec (all but its last) to
// cols.
func parseRow(cols [][]float64, rec [][]byte, attrs []string) error {
	for a := range cols {
		v, err := parseValue(string(rec[a]))
		if err != nil {
			return fmt.Errorf("attribute %q: %w", attrs[a], err)
		}
		cols[a] = append(cols[a], v)
	}
	return nil
}

// parseValue parses one attribute field of a CSV record. A field that
// is not a number fails with ErrMalformedCSV; "NaN" and "Inf" parse as
// floats but fail with ErrNonFiniteValue. field does not escape, so a
// string([]byte) argument is not copied to the heap.
func parseValue(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrMalformedCSV)
	}
	if !finite(v) {
		return 0, fmt.Errorf("%q: %w", strings.Clone(field), ErrNonFiniteValue)
	}
	return v, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

// classIndex assigns class names label indices in order of first
// appearance.
type classIndex struct {
	idx   map[string]int
	names []string
}

// intern returns the label index of name, adding it if new.
func (c *classIndex) intern(name []byte) int {
	if li, ok := c.idx[string(name)]; ok {
		return li
	}
	return c.add(string(name))
}

func (c *classIndex) add(name string) int {
	if c.idx == nil {
		c.idx = make(map[string]int)
	}
	c.idx[name] = len(c.names)
	c.names = append(c.names, name)
	return len(c.names) - 1
}

// ReadCSV parses a dataset from CSV produced by WriteCSV (or any CSV
// whose last column is a categorical class and all other columns are
// numeric). Class names are assigned indices in order of first
// appearance. It is ReadCSVWorkers at the default worker count.
func ReadCSV(r io.Reader) (*Dataset, error) { return ReadCSVWorkers(r, 0) }

// ReadCSVWorkers is ReadCSV parsing up to workers windows at once
// (<= 0 resolves through parallel.ResolveWorkers). An input that fits
// one window, or workers 1, parses inline on the calling goroutine.
// The result is the same at any worker count.
func ReadCSVWorkers(r io.Reader, workers int) (*Dataset, error) {
	return readCSV(r, csvWindow, workers)
}

// readCSV is ReadCSVWorkers over windows of the given size.
func readCSV(r io.Reader, window, workers int) (*Dataset, error) {
	sp := obs.StartSpan("io/parse")
	defer sp.End()
	src, err := newCSVSource(r, window)
	if err != nil {
		return nil, err
	}
	d := New(src.schema.AttrNames, nil)
	if err := src.parseWindows(d, parallel.ResolveWorkers(workers)); err != nil {
		return nil, err
	}
	// What the windows left: the encoding/csv fallback, if any.
	for src.c.cr != nil {
		blk, err := src.Next(0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for a := range d.Cols {
			d.Cols[a] = append(d.Cols[a], blk.Cols[a]...)
		}
		d.Labels = append(d.Labels, blk.Labels...)
	}
	d.ClassNames = src.schema.ClassNames
	obs.Add("io.parse.rows", int64(d.NumTuples()))
	obs.Add("io.parse.bytes", src.c.w.n)
	return d, nil
}

// csvChunk is one window parsed on a worker: its rows, with labels
// indexing the window's own classes, and the lines it spans.
type csvChunk struct {
	buf     []byte // the window's storage
	sc      lineScanner
	cols    [][]float64
	labels  []int
	classes classIndex
	remap   []int // window label → dataset label
	err     error
}

// chunkPool recycles chunks, and with them their column buffers,
// across windows and calls.
var chunkPool = sync.Pool{New: func() any { return new(csvChunk) }}

// parse parses the chunk's window into its rows; a failure stops at
// the failing line, which sc.line then holds.
func (ch *csvChunk) parse(attrs []string) {
	ch.cols = slices.Grow(ch.cols[:0], len(attrs))[:len(attrs)]
	for a := range ch.cols {
		ch.cols[a] = ch.cols[a][:0]
	}
	ch.labels, ch.err, ch.sc.line = ch.labels[:0], nil, 0
	clear(ch.classes.idx)
	ch.classes.names = ch.classes.names[:0]
	for {
		rec, err := ch.sc.next(len(attrs) + 1)
		if err == nil {
			err = parseRow(ch.cols, rec, attrs)
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			ch.err = err
			return
		}
		ch.labels = append(ch.labels, ch.classes.intern(rec[len(attrs)]))
	}
}

// parseWindows parses the quote-free windows of s's input — the rest
// of the current window, then each following one up to EOF or the
// first that holds a '"', which it leaves to the encoding/csv fallback
// — on up to workers goroutines, and appends their rows to d in window
// order. Window and chunk buffers are recycled, so memory beyond d
// stays O(workers × window).
func (s *CSVSource) parseWindows(d *Dataset, workers int) error {
	c := &s.c
	if c.cr != nil {
		return nil
	}
	if c.w.err != nil {
		workers = 1 // all of the input is in the first window
	}
	first, firstBuf := c.sc.win, c.buf
	c.sc.win, c.buf = nil, nil
	next := func() (*csvChunk, bool, error) {
		ch := chunkPool.Get().(*csvChunk)
		if firstBuf != nil {
			ch.sc.win, ch.buf = first, firstBuf
			firstBuf = nil
			return ch, true, nil
		}
		buf := getWindow()
		win, err := c.w.next(buf)
		if err != nil {
			putWindow(buf)
			if err == io.EOF {
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("reading: %w: %w", err, ErrMalformedCSV)
		}
		if bytes.IndexByte(win, '"') >= 0 {
			c.buf = win
			c.fallback(win)
			return nil, false, nil
		}
		ch.sc.win, ch.buf = win, win
		return ch, true, nil
	}
	produce := func(ch *csvChunk) (*csvChunk, error) {
		ch.parse(d.AttrNames)
		putWindow(ch.buf)
		ch.buf = nil
		return ch, nil
	}
	consume := func(ch *csvChunk) error {
		if ch.err != nil {
			return fmt.Errorf("line %d: %w", c.sc.line+ch.sc.line, ch.err)
		}
		c.sc.line += ch.sc.line
		ch.remap = ch.remap[:0]
		for _, name := range ch.classes.names {
			li, ok := s.classes.idx[name]
			if !ok {
				li = s.classes.add(name)
			}
			ch.remap = append(ch.remap, li)
		}
		for a, col := range ch.cols {
			d.Cols[a] = append(growDoubling(d.Cols[a], len(col)), col...)
		}
		d.Labels = growDoubling(d.Labels, len(ch.labels))
		for _, l := range ch.labels {
			d.Labels = append(d.Labels, ch.remap[l])
		}
		chunkPool.Put(ch)
		return nil
	}
	err := parallel.OrderedStream(context.TODO(), workers, next, produce, consume)
	s.schema.ClassNames = s.classes.names
	return err
}

// growDoubling makes room for n more elements in s, at least doubling
// its capacity when it grows: append alone grows a large slice by a
// quarter, which allocates about five times its final size.
func growDoubling[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(len(s), n))
}

// WriteCSV writes the dataset as CSV with a header row. Attribute columns
// come first, the class label (by name) last.
func (d *Dataset) WriteCSV(w io.Writer) error {
	s := NewCSVSink(w, &Schema{AttrNames: d.AttrNames, ClassNames: d.ClassNames})
	blk := Block{Cols: make([][]float64, len(d.Cols))}
	for lo := 0; lo < d.NumTuples(); lo += defaultBlockRows {
		hi := min(lo+defaultBlockRows, d.NumTuples())
		for a, col := range d.Cols {
			blk.Cols[a] = col[lo:hi]
		}
		blk.Labels = d.Labels[lo:hi]
		if err := s.Write(&blk); err != nil {
			return err
		}
	}
	return s.Flush()
}

// appendCSVRows is the row formatter: it appends rows [lo, hi) of b to
// dst, each value in strconv's shortest 'g' form, then the row's class
// field from class (escaped already, indexed by label) and '\n'.
func appendCSVRows(dst []byte, b *Block, lo, hi int, class [][]byte) []byte {
	for i := lo; i < hi; i++ {
		// Room for the longest row: 'g' needs at most 24 bytes a value.
		dst = growDoubling(dst, 25*len(b.Cols)+len(class[b.Labels[i]])+1)
		for _, col := range b.Cols {
			dst = strconv.AppendFloat(dst, col[i], 'g', -1, 64)
			dst = append(dst, ',')
		}
		dst = append(append(dst, class[b.Labels[i]]...), '\n')
	}
	return dst
}

// csvLine returns fields as one CSV record, escaped by encoding/csv.
func csvLine(fields ...string) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write(fields) // a bytes.Buffer never fails
	cw.Flush()
	return b.Bytes()
}

// classFields extends fields, the escaped class fields by label, to
// cover names.
func classFields(fields [][]byte, names []string) [][]byte {
	for _, name := range names[len(fields):] {
		l := csvLine(name)
		fields = append(fields, l[:len(l)-1])
	}
	return fields
}

// csvHeader returns the header record of schema.
func csvHeader(schema *Schema) []byte {
	return csvLine(append(slices.Clone(schema.AttrNames), "class")...)
}
