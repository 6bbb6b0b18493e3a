package dataset

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"privtree/internal/obs"
	"privtree/internal/parallel"
)

// The streaming layer: a chunked Source/Sink pair that lets consumers
// (the encode pipeline's apply stage, CSV import/export) process a
// relation block-wise instead of materializing it, so a custodian key
// built once can encode data sets larger than memory.

// Schema describes the columns flowing through a Source or Sink.
type Schema struct {
	// AttrNames holds one name per attribute column.
	AttrNames []string
	// ClassNames maps label indices to class names. For streaming CSV
	// sources this grows as new classes are discovered; a Sink sharing
	// the Schema resolves labels against the same slice, so any label
	// inside an already-read block resolves correctly.
	ClassNames []string
	// Categorical maps categorical attribute indices to their category
	// names (CSV streams carry none; dataset-backed sources do).
	Categorical map[int][]string
}

// NumAttrs returns the number of attribute columns.
func (s *Schema) NumAttrs() int { return len(s.AttrNames) }

// Clone returns a deep copy whose ClassNames no longer aliases the
// source's growing slice.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		AttrNames:  append([]string(nil), s.AttrNames...),
		ClassNames: append([]string(nil), s.ClassNames...),
	}
	if s.Categorical != nil {
		c.Categorical = make(map[int][]string, len(s.Categorical))
		for a, names := range s.Categorical {
			c.Categorical[a] = append([]string(nil), names...)
		}
	}
	return c
}

// Schema returns the dataset's schema. The returned value shares no
// mutable state with the dataset.
func (d *Dataset) Schema() *Schema {
	s := &Schema{
		AttrNames:  append([]string(nil), d.AttrNames...),
		ClassNames: append([]string(nil), d.ClassNames...),
	}
	if d.catNames != nil {
		s.Categorical = make(map[int][]string, len(d.catNames))
		for a, names := range d.catNames {
			s.Categorical[a] = append([]string(nil), names...)
		}
	}
	return s
}

// Block is one chunk of tuples in the column-major layout of Dataset:
// Cols[a][i] is the value of attribute a in the block's i-th tuple.
type Block struct {
	Cols   [][]float64
	Labels []int
}

// NumRows returns the number of tuples in the block.
func (b *Block) NumRows() int { return len(b.Labels) }

// Source yields a relation instance block by block.
type Source interface {
	// Schema describes the columns. For streaming sources the returned
	// pointer is live: ClassNames grows as blocks reveal new classes.
	Schema() *Schema
	// Next returns the next block with at most max tuples (max <= 0
	// means the implementation's default), or io.EOF when the source is
	// exhausted. The returned block is only valid until the next call
	// to Next — implementations may reuse buffers; consumers must copy
	// what they keep.
	Next(max int) (*Block, error)
}

// Sink consumes a relation instance block by block.
type Sink interface {
	// Write consumes one block. The sink must not retain the block.
	Write(b *Block) error
	// Flush finalizes the sink after the last block.
	Flush() error
}

// defaultBlockRows is the block size used when a consumer passes
// max <= 0: large enough to amortize per-block overhead, small enough
// that a block of a wide relation stays cache- and memory-friendly.
const defaultBlockRows = 4096

// DatasetSource streams an in-memory dataset block-wise. Blocks are
// copies, so consumers may mutate them freely (the encode pipeline's
// apply stage transforms blocks in place).
type DatasetSource struct {
	d      *Dataset
	schema *Schema
	at     int
	buf    Block
}

// NewDatasetSource returns a Source over d.
func NewDatasetSource(d *Dataset) *DatasetSource {
	return &DatasetSource{d: d, schema: d.Schema()}
}

// Schema implements Source.
func (s *DatasetSource) Schema() *Schema { return s.schema }

// Total reports the number of tuples the source will yield — the size
// hint streaming consumers (progress/ETA reporting) discover through
// the optional interface{ Total() int }. Sources of unknown length,
// like CSVSource, simply don't implement it.
func (s *DatasetSource) Total() int { return s.d.NumTuples() }

// Next implements Source.
func (s *DatasetSource) Next(max int) (*Block, error) {
	if max <= 0 {
		max = defaultBlockRows
	}
	n := s.d.NumTuples() - s.at
	if n <= 0 {
		return nil, io.EOF
	}
	if n > max {
		n = max
	}
	if cap(s.buf.Labels) < n {
		s.buf.Labels = make([]int, n)
		s.buf.Cols = make([][]float64, s.d.NumAttrs())
		for a := range s.buf.Cols {
			s.buf.Cols[a] = make([]float64, n)
		}
	}
	s.buf.Labels = s.buf.Labels[:n]
	for a := range s.buf.Cols {
		s.buf.Cols[a] = s.buf.Cols[a][:n]
		copy(s.buf.Cols[a], s.d.Cols[a][s.at:s.at+n])
	}
	copy(s.buf.Labels, s.d.Labels[s.at:s.at+n])
	s.at += n
	return &s.buf, nil
}

// CSVSource streams a CSV relation (last column = class) block-wise
// without reading the file into memory. Class names are assigned
// indices in order of first appearance, exactly like ReadCSV, so a
// CSVSource drained into a Collector reproduces ReadCSV's dataset.
type CSVSource struct {
	c       csvReader
	schema  *Schema
	classes classIndex
	// class, when set, resolves class fields instead of classes (a CSV
	// shard resolves them against its manifest).
	class func(name []byte) (int, error)
	buf   Block
	err   error
}

// NewCSVSource prepares a streaming CSV reader; the header row is read
// eagerly so Schema is available before the first block.
func NewCSVSource(r io.Reader) (*CSVSource, error) { return newCSVSource(r, csvWindow) }

// newCSVSource is NewCSVSource over windows of the given size.
func newCSVSource(r io.Reader, window int) (*CSVSource, error) {
	s := &CSVSource{c: csvReader{w: windowReader{r: r, size: window}}}
	header, err := readHeader(&s.c)
	if err != nil {
		s.c.release()
		return nil, err
	}
	s.schema = &Schema{AttrNames: header[:len(header)-1]}
	return s, nil
}

// Schema implements Source. ClassNames grows as blocks are read.
func (s *CSVSource) Schema() *Schema { return s.schema }

// Next implements Source.
func (s *CSVSource) Next(max int) (*Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	if max <= 0 {
		max = defaultBlockRows
	}
	m := len(s.schema.AttrNames)
	if cap(s.buf.Labels) < max {
		s.buf.Labels = make([]int, 0, max)
		s.buf.Cols = make([][]float64, m)
		for a := range s.buf.Cols {
			s.buf.Cols[a] = make([]float64, 0, max)
		}
	}
	s.buf.Labels = s.buf.Labels[:0]
	for a := range s.buf.Cols {
		s.buf.Cols[a] = s.buf.Cols[a][:0]
	}
	for len(s.buf.Labels) < max {
		rec, err := s.c.next()
		if err == io.EOF {
			s.err = io.EOF
			s.c.release()
			break
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		li := 0
		if err = parseRow(s.buf.Cols, rec, s.schema.AttrNames); err == nil {
			if s.class != nil {
				li, err = s.class(rec[m])
			} else {
				li = s.classes.intern(rec[m])
			}
		}
		if err != nil {
			s.err = fmt.Errorf("line %d: %w", s.c.line(), err)
			return nil, s.err
		}
		s.buf.Labels = append(s.buf.Labels, li)
	}
	if s.class == nil {
		s.schema.ClassNames = s.classes.names
	}
	if len(s.buf.Labels) == 0 {
		return nil, io.EOF
	}
	return &s.buf, nil
}

// CSVSink writes blocks as CSV in the format of Dataset.WriteCSV: a
// header row, attribute columns first, the class name last. It resolves
// labels against the given schema at Write time, so it composes with a
// streaming source whose ClassNames is still growing. A Write that
// fails writes nothing.
type CSVSink struct {
	// Workers bounds the goroutines Write formats a block's rows on
	// (<= 0 resolves through parallel.ResolveWorkers). The bytes are
	// the same at any setting.
	Workers int

	w      *bufio.Writer
	schema *Schema
	class  [][]byte // escaped class fields by label; it only grows
	wrote  bool     // the header is written
	bufs   [][]byte // one reusable buffer per row range
}

// NewCSVSink returns a Sink writing to w under schema.
func NewCSVSink(w io.Writer, schema *Schema) *CSVSink {
	return &CSVSink{w: bufio.NewWriter(w), schema: schema}
}

// Write implements Sink. It checks every label before formatting, then
// formats contiguous row ranges on up to Workers goroutines, each into
// a buffer of its own, and writes the buffers in row order.
func (s *CSVSink) Write(b *Block) error {
	if m := s.schema.NumAttrs(); len(b.Cols) != m {
		return fmt.Errorf("block has %d columns, schema %d: %w", len(b.Cols), m, ErrSchemaMismatch)
	}
	s.class = classFields(s.class, s.schema.ClassNames)
	for _, label := range b.Labels {
		if label < 0 || label >= len(s.class) {
			return fmt.Errorf("block label %d outside schema classes: %w", label, ErrBadLabel)
		}
	}
	n := b.NumRows()
	parts := parallel.Parts(n, parallel.ResolveWorkers(s.Workers))
	for len(s.bufs) < parts {
		s.bufs = append(s.bufs, nil)
	}
	format := func(r int) error {
		lo, hi := parallel.Part(n, parts, r)
		s.bufs[r] = appendCSVRows(s.bufs[r][:0], b, lo, hi, s.class)
		return nil
	}
	if parts == 1 {
		_ = format(0) // always nil; signature shared with the fan-out
	} else {
		// The units never fail and the context is never cancelled.
		_ = parallel.ForEach(context.TODO(), parts, parts, format)
	}
	size := 0
	for _, p := range s.bufs[:parts] {
		if err := s.write(p); err != nil {
			return err
		}
		size += len(p)
	}
	obs.Add("io.format_write.rows", int64(n))
	obs.Add("io.format_write.bytes", int64(size))
	return nil
}

// write writes p, after the header if nothing was written yet.
func (s *CSVSink) write(p []byte) error {
	if !s.wrote {
		s.wrote = true
		if _, err := s.w.Write(csvHeader(s.schema)); err != nil {
			return err
		}
	}
	_, err := s.w.Write(p)
	return err
}

// Flush implements Sink. An empty stream still gets its header so the
// output is a valid, readable CSV.
func (s *CSVSink) Flush() error {
	if err := s.write(nil); err != nil {
		return err
	}
	return s.w.Flush()
}

// Collector is a Sink that materializes the stream into a Dataset —
// the bridge back from block-wise processing to the in-memory API.
type Collector struct {
	schema *Schema
	d      *Dataset
}

// NewCollector returns a Collector for the given schema. The schema
// may be a streaming source's live schema: class names are resolved at
// Dataset() time, after every block has been written.
func NewCollector(schema *Schema) *Collector {
	d := New(schema.AttrNames, nil)
	return &Collector{schema: schema, d: d}
}

// Write implements Sink.
func (c *Collector) Write(b *Block) error {
	if len(b.Cols) != c.d.NumAttrs() {
		return fmt.Errorf("block has %d columns, schema %d: %w", len(b.Cols), c.d.NumAttrs(), ErrSchemaMismatch)
	}
	for a := range b.Cols {
		c.d.Cols[a] = append(c.d.Cols[a], b.Cols[a]...)
	}
	c.d.Labels = append(c.d.Labels, b.Labels...)
	return nil
}

// Flush implements Sink.
func (c *Collector) Flush() error { return nil }

// Dataset finalizes and returns the collected dataset.
func (c *Collector) Dataset() (*Dataset, error) {
	c.d.ClassNames = append([]string(nil), c.schema.ClassNames...)
	for a, names := range c.schema.Categorical {
		if err := c.d.MarkCategorical(a, names); err != nil {
			return nil, err
		}
	}
	if err := c.d.Validate(); err != nil {
		return nil, err
	}
	return c.d, nil
}
