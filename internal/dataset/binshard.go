package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The binary shard format, version 1. A shard file is:
//
//	header:   magic "PVTB" | uint16 version | uint16 nAttrs
//	frames:   uint32 n (0 < n < 2^32-1)
//	          nAttrs × n float64 column values (column-major)
//	          n      × uint16 label indices (manifest class order)
//	trailer:  uint32 0xFFFFFFFF | uint32 totalRows
//
// All integers and floats are little-endian; float64 values are raw
// IEEE-754 bits, so every value — including -0.0 and subnormals —
// round-trips exactly, and reading costs a memcpy instead of
// strconv.ParseFloat (the cost that dominates the CSV shard profile).
// NaN and ±Inf bits are the exception: the reader rejects them with
// ErrNonFiniteValue, as every other reader does. Labels are uint16 indices
// into the manifest's ClassNames, which fixes the label order globally
// exactly like the CSV shards' class-name column does.
//
// The frame layout keeps both directions streaming: the writer never
// seeks (the row count lives in the trailer, not the header) and the
// reader consumes the file strictly front to back, which is what lets
// the manifest checksum — XXH64 over the complete file bytes — be
// produced and verified incrementally on the same pass that moves the
// data. Truncation, frame corruption and checksum mismatches surface
// as ErrCorruptShard; disagreements with the manifest (row-count lies,
// label indices outside the declared classes) as ErrBadManifest.

const (
	// binShardMagic opens every binary shard file.
	binShardMagic = "PVTB"
	// BinaryShardVersion is the wire version of the binary shard
	// format; readers reject files written by an incompatible version.
	BinaryShardVersion = 1
	// binTrailerMark is the frame-length sentinel that introduces the
	// trailer.
	binTrailerMark = 0xFFFF_FFFF
	// maxBinFrameRows bounds the rows per frame a reader accepts, so a
	// corrupt length field cannot demand an absurd allocation. Writers
	// split larger blocks; the cap is far above any real block size.
	maxBinFrameRows = 1 << 20
)

// binHeaderSize is the byte length of the fixed header.
const binHeaderSize = len(binShardMagic) + 2 + 2

// binShardWriter writes one binary shard file, hashing every byte on
// the way out.
type binShardWriter struct {
	f       *os.File
	bw      *bufio.Writer
	h       *xxh64
	w       io.Writer // bw teed into h
	nAttrs  int
	rows    int
	scratch []byte
}

// newBinShardWriter creates the shard file and writes its header.
func newBinShardWriter(path string, nAttrs int) (*binShardWriter, error) {
	if nAttrs <= 0 || nAttrs > math.MaxUint16 {
		return nil, fmt.Errorf("binary shard with %d attributes (want 1..%d): %w", nAttrs, math.MaxUint16, ErrBadManifest)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &binShardWriter{f: f, bw: bufio.NewWriter(f), h: newXXH64(), nAttrs: nAttrs}
	w.w = &hashingWriter{w: w.bw, h: w.h}
	hdr := make([]byte, 0, binHeaderSize)
	hdr = append(hdr, binShardMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, BinaryShardVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(nAttrs))
	if _, err := w.w.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// writeFrame emits the rows [lo, hi) of a block whose labels have
// already been remapped to manifest class order.
func (w *binShardWriter) writeFrame(cols [][]float64, labels []uint16, lo, hi int) error {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	for n > maxBinFrameRows {
		if err := w.writeFrame(cols, labels, lo, lo+maxBinFrameRows); err != nil {
			return err
		}
		lo += maxBinFrameRows
		n = hi - lo
	}
	need := 4 + w.nAttrs*n*8 + n*2
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need)
	}
	b := w.scratch[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for a := 0; a < w.nAttrs; a++ {
		for _, v := range cols[a][lo:hi] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, l := range labels[lo:hi] {
		b = binary.LittleEndian.AppendUint16(b, l)
	}
	w.scratch = b[:0]
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.rows += n
	return nil
}

// finish writes the trailer, flushes, closes the file, and returns the
// row count and manifest checksum string.
func (w *binShardWriter) finish() (rows int, checksum string, err error) {
	var tr [8]byte
	binary.LittleEndian.PutUint32(tr[0:4], binTrailerMark)
	binary.LittleEndian.PutUint32(tr[4:8], uint32(w.rows))
	if _, err := w.w.Write(tr[:]); err != nil {
		w.f.Close()
		return 0, "", err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return 0, "", err
	}
	if err := w.f.Close(); err != nil {
		return 0, "", err
	}
	return w.rows, formatChecksum(w.h.Sum64()), nil
}

// abort closes and removes a partially written shard after an error.
func (w *binShardWriter) abort(path string) {
	w.f.Close()
	os.Remove(path)
}

// binShardReader reads one binary shard file front to back, verifying
// the header against the manifest schema, every frame against the
// declared row count, and — when the manifest declares one — the
// checksum over the complete file bytes.
type binShardReader struct {
	rc       io.ReadCloser
	br       *bufio.Reader
	h        *xxh64
	path     string
	nAttrs   int
	nClasses int
	declared int
	want     string // manifest checksum; "" skips verification
	read     int

	frame    Block // decoded current frame (owned buffers)
	frameLen int
	pos      int // rows of the frame already served
	scratch  []byte
	done     bool
}

// newBinShardReader wraps an open shard stream. declared is the
// manifest's row count for the shard; checksum its checksum string
// (empty to skip verification).
func newBinShardReader(rc io.ReadCloser, path string, nAttrs, nClasses, declared int, checksum string) (*binShardReader, error) {
	r := &binShardReader{
		rc:       rc,
		h:        newXXH64(),
		path:     path,
		nAttrs:   nAttrs,
		nClasses: nClasses,
		declared: declared,
		want:     checksum,
	}
	r.br = bufio.NewReader(io.TeeReader(rc, r.h))
	hdr := make([]byte, binHeaderSize)
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		rc.Close()
		return nil, fmt.Errorf("shard %s: reading header: %w: %w", path, err, ErrCorruptShard)
	}
	if string(hdr[:len(binShardMagic)]) != binShardMagic {
		rc.Close()
		return nil, fmt.Errorf("shard %s: bad magic %q: %w", path, hdr[:len(binShardMagic)], ErrCorruptShard)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != BinaryShardVersion {
		rc.Close()
		return nil, fmt.Errorf("shard %s: format version %d, want %d: %w", path, v, BinaryShardVersion, ErrCorruptShard)
	}
	if got := int(binary.LittleEndian.Uint16(hdr[6:8])); got != nAttrs {
		rc.Close()
		return nil, fmt.Errorf("shard %s: header has %d attributes, manifest declares %d: %w", path, got, nAttrs, ErrBadManifest)
	}
	return r, nil
}

// loadFrame decodes the next frame into r.frame, or returns io.EOF
// after a fully verified trailer.
func (r *binShardReader) loadFrame() error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.br, lenBuf[:]); err != nil {
		return fmt.Errorf("shard %s: reading frame length: %w: %w", r.path, err, ErrCorruptShard)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == binTrailerMark {
		return r.finishTrailer()
	}
	if n == 0 || n > maxBinFrameRows {
		return fmt.Errorf("shard %s: frame of %d rows: %w", r.path, n, ErrCorruptShard)
	}
	rows := int(n)
	if r.read+rows > r.declared {
		return fmt.Errorf("shard %s has more than the declared %d rows: %w", r.path, r.declared, ErrBadManifest)
	}
	need := r.nAttrs*rows*8 + rows*2
	if cap(r.scratch) < need {
		r.scratch = make([]byte, need)
	}
	body := r.scratch[:need]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return fmt.Errorf("shard %s: frame truncated: %w: %w", r.path, err, ErrCorruptShard)
	}
	if cap(r.frame.Labels) < rows || len(r.frame.Cols) != r.nAttrs {
		r.frame.Labels = make([]int, rows)
		r.frame.Cols = make([][]float64, r.nAttrs)
		for a := range r.frame.Cols {
			r.frame.Cols[a] = make([]float64, rows)
		}
	}
	r.frame.Labels = r.frame.Labels[:rows]
	for a := 0; a < r.nAttrs; a++ {
		col := r.frame.Cols[a][:rows]
		base := a * rows * 8
		for i := 0; i < rows; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(body[base+i*8:]))
			if !finite(v) {
				return fmt.Errorf("shard %s row %d attribute %d: %w", r.path, r.read+i+1, a, ErrNonFiniteValue)
			}
			col[i] = v
		}
		r.frame.Cols[a] = col
	}
	labelBase := r.nAttrs * rows * 8
	for i := 0; i < rows; i++ {
		l := int(binary.LittleEndian.Uint16(body[labelBase+i*2:]))
		if l >= r.nClasses {
			return fmt.Errorf("shard %s row %d: label index %d not in manifest's %d classes: %w",
				r.path, r.read+i+1, l, r.nClasses, ErrBadManifest)
		}
		r.frame.Labels[i] = l
	}
	r.read += rows
	r.frameLen = rows
	r.pos = 0
	return nil
}

// finishTrailer verifies the trailer, the row counts, and the
// checksum, and returns io.EOF on success.
func (r *binShardReader) finishTrailer() error {
	var tot [4]byte
	if _, err := io.ReadFull(r.br, tot[:]); err != nil {
		return fmt.Errorf("shard %s: trailer truncated: %w: %w", r.path, err, ErrCorruptShard)
	}
	if got := int(binary.LittleEndian.Uint32(tot[:])); got != r.read {
		return fmt.Errorf("shard %s: trailer declares %d rows, file carries %d: %w", r.path, got, r.read, ErrCorruptShard)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("shard %s: trailing bytes after trailer: %w", r.path, ErrCorruptShard)
	}
	if r.read != r.declared {
		return fmt.Errorf("shard %s has %d rows, manifest declares %d: %w", r.path, r.read, r.declared, ErrBadManifest)
	}
	if r.want != "" {
		want, err := parseChecksum(r.want)
		if err != nil {
			return fmt.Errorf("shard %s: %w", r.path, err)
		}
		if got := r.h.Sum64(); got != want {
			return fmt.Errorf("shard %s: checksum %s, manifest declares %s: %w",
				r.path, formatChecksum(got), r.want, ErrCorruptShard)
		}
	}
	r.done = true
	return io.EOF
}

// next implements rowReader: it serves up to max rows, aliasing the
// decoded frame buffers into buf (valid until the next call).
func (r *binShardReader) next(max int, buf *Block) (*Block, error) {
	if r.done {
		return nil, io.EOF
	}
	if max <= 0 {
		max = defaultBlockRows
	}
	for r.pos >= r.frameLen {
		if err := r.loadFrame(); err != nil {
			return nil, err
		}
	}
	k := r.frameLen - r.pos
	if k > max {
		k = max
	}
	if len(buf.Cols) != r.nAttrs {
		buf.Cols = make([][]float64, r.nAttrs)
	}
	for a := 0; a < r.nAttrs; a++ {
		buf.Cols[a] = r.frame.Cols[a][r.pos : r.pos+k]
	}
	buf.Labels = r.frame.Labels[r.pos : r.pos+k]
	r.pos += k
	return buf, nil
}

func (r *binShardReader) close() error   { return r.rc.Close() }
func (r *binShardReader) abandon() error { return r.rc.Close() }

// NewBinaryShardSource wraps an open binary shard stream as a Source
// against a fixed schema — the single-file face of the binary format,
// and the surface FuzzReadBinaryShard drives with arbitrary bytes.
// declared and checksum come from the manifest entry describing the
// shard (checksum "" skips verification). The source yields
// ErrCorruptShard/ErrBadManifest — never a panic — on malformed input.
func NewBinaryShardSource(rc io.ReadCloser, name string, schema *Schema, declared int, checksum string) (*ShardSource, error) {
	r, err := newBinShardReader(rc, name, schema.NumAttrs(), len(schema.ClassNames), declared, checksum)
	if err != nil {
		return nil, err
	}
	return &ShardSource{r: r, s: schema, rows: declared}, nil
}

// BinaryShardSink is a ShardSink writing the stream as a binary-format
// sharded data set: shard files of at most rowsPerShard tuples named
// <prefix>-00000.bin, <prefix>-00001.bin, ..., plus a version-2
// manifest at <prefix>.manifest.json with format "bin" and per-shard
// XXH64 checksums. Labels are remapped to order of first appearance in
// the written rows — the same assignment rule the CSV shards inherit
// from ReadCSV — so a binary write followed by a sharded read produces
// exactly the label indices of the CSV path.
type BinaryShardSink struct {
	prefix       string
	schema       *Schema
	rowsPerShard int

	cur     *binShardWriter
	curRows int

	classes  classTracker
	shards   []ShardInfo
	flushed  bool
	labelBuf []uint16
}

// NewBinaryShardSink returns a sink writing binary shard files and a
// manifest under the given path prefix. rowsPerShard caps the tuples
// per shard file and must be positive.
func NewBinaryShardSink(prefix string, rowsPerShard int, schema *Schema) (*BinaryShardSink, error) {
	if rowsPerShard <= 0 {
		return nil, fmt.Errorf("rows per shard %d, want > 0: %w", rowsPerShard, ErrBadManifest)
	}
	if schema.NumAttrs() == 0 {
		return nil, ErrNoAttributes
	}
	if schema.NumAttrs() > math.MaxUint16 {
		return nil, fmt.Errorf("%d attributes exceed the binary format's %d: %w", schema.NumAttrs(), math.MaxUint16, ErrBadManifest)
	}
	s := &BinaryShardSink{prefix: prefix, schema: schema, rowsPerShard: rowsPerShard}
	s.classes.init(schema)
	return s, nil
}

// PinClassOrder makes the manifest record the schema's ClassNames
// verbatim instead of order of first appearance — what a format
// conversion uses to preserve the input manifest's label indices
// exactly.
func (s *BinaryShardSink) PinClassOrder() { s.classes.pin() }

// ManifestPath returns the path the manifest is written to at Flush.
func (s *BinaryShardSink) ManifestPath() string { return s.prefix + ".manifest.json" }

// shardPath returns the path of shard i.
func (s *BinaryShardSink) shardPath(i int) string {
	return fmt.Sprintf("%s-%05d.bin", s.prefix, i)
}

// openShard starts the next shard file.
func (s *BinaryShardSink) openShard() error {
	w, err := newBinShardWriter(s.shardPath(len(s.shards)), s.schema.NumAttrs())
	if err != nil {
		return err
	}
	s.cur = w
	s.curRows = 0
	return nil
}

// closeShard finishes the open shard file and records it in the
// manifest's shard list.
func (s *BinaryShardSink) closeShard() error {
	rows, sum, err := s.cur.finish()
	if err != nil {
		return err
	}
	s.shards = append(s.shards, ShardInfo{
		Path:     filepath.Base(s.shardPath(len(s.shards))),
		Rows:     rows,
		Checksum: sum,
	})
	s.cur = nil
	return nil
}

// Write implements Sink, splitting blocks across shard boundaries as
// needed. Labels resolve against the sink's schema at Write time, so a
// streaming source's live schema works.
func (s *BinaryShardSink) Write(b *Block) error {
	m := s.schema.NumAttrs()
	if len(b.Cols) != m {
		return fmt.Errorf("block has %d columns, schema %d: %w", len(b.Cols), m, ErrSchemaMismatch)
	}
	if cap(s.labelBuf) < len(b.Labels) {
		s.labelBuf = make([]uint16, len(b.Labels))
	}
	labels := s.labelBuf[:len(b.Labels)]
	for i, label := range b.Labels {
		out, err := s.classes.resolve(label)
		if err != nil {
			return err
		}
		if out > math.MaxUint16 {
			return fmt.Errorf("label index %d exceeds the binary format's %d classes: %w", out, math.MaxUint16+1, ErrBadLabel)
		}
		labels[i] = uint16(out)
	}
	for lo := 0; lo < len(labels); {
		if s.cur == nil {
			if err := s.openShard(); err != nil {
				return err
			}
		}
		hi := lo + (s.rowsPerShard - s.curRows)
		if hi > len(labels) {
			hi = len(labels)
		}
		if err := s.cur.writeFrame(b.Cols, labels, lo, hi); err != nil {
			s.cur.abort(s.shardPath(len(s.shards)))
			s.cur = nil
			return err
		}
		s.curRows += hi - lo
		lo = hi
		if s.curRows == s.rowsPerShard {
			if err := s.closeShard(); err != nil {
				return err
			}
		}
	}
	return nil
}

// NextShard forces a shard boundary: the open shard is finished (an
// empty one is created first if none is open), so the next row starts
// a new shard file. Format conversions use it to reproduce the input
// set's shard boundaries exactly.
func (s *BinaryShardSink) NextShard() error {
	if s.cur == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	return s.closeShard()
}

// Flush implements Sink: it finishes the open shard, writes the
// manifest, and makes the set readable. An empty stream produces one
// empty shard so the set round-trips like an empty CSV.
func (s *BinaryShardSink) Flush() error {
	if s.flushed {
		return nil
	}
	if s.cur == nil && len(s.shards) == 0 {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	if s.cur != nil {
		if err := s.closeShard(); err != nil {
			return err
		}
	}
	s.flushed = true
	m := &Manifest{
		Version:    ManifestVersion,
		Format:     FormatBin,
		AttrNames:  append([]string(nil), s.schema.AttrNames...),
		ClassNames: s.classes.classNames(),
		Shards:     s.shards,
	}
	return WriteManifest(m, s.ManifestPath())
}
