package dataset

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// classTracker resolves sink-schema label indices to manifest label
// indices. Unpinned (the default) it assigns indices in order of first
// appearance in the written rows — the same rule ReadCSV applies to a
// single file — so a sharded write followed by a sharded read produces
// the label indices of writing and reading one big CSV. Pinned, it
// passes indices through and records the schema's ClassNames verbatim,
// which is what a format conversion uses to keep the input manifest's
// label mapping byte-for-byte.
type classTracker struct {
	schema *Schema
	pinned bool
	outOf  map[int]int // schema label index → manifest label index
	names  []string    // manifest class order (unpinned)
}

func (t *classTracker) init(s *Schema) {
	t.schema = s
	t.outOf = make(map[int]int)
}

func (t *classTracker) pin() { t.pinned = true }

// resolve maps a schema label index to its manifest label index,
// validating the range against the (possibly live) schema.
func (t *classTracker) resolve(label int) (int, error) {
	if label < 0 || label >= len(t.schema.ClassNames) {
		return 0, fmt.Errorf("block label %d outside schema classes: %w", label, ErrBadLabel)
	}
	if t.pinned {
		return label, nil
	}
	out, ok := t.outOf[label]
	if !ok {
		out = len(t.names)
		t.outOf[label] = out
		t.names = append(t.names, t.schema.ClassNames[label])
	}
	return out, nil
}

// classNames returns the manifest's ClassNames list.
func (t *classTracker) classNames() []string {
	if t.pinned {
		return append([]string(nil), t.schema.ClassNames...)
	}
	return append([]string(nil), t.names...)
}

// ShardSink is the contract the shard-writing sinks add on top of
// Sink: explicit shard boundaries and class-order pinning, which
// together let a format conversion reproduce a sharded set exactly.
type ShardSink interface {
	Sink
	// NextShard forces a shard boundary after the rows written so far.
	NextShard() error
	// PinClassOrder makes the manifest record the schema's ClassNames
	// verbatim instead of order of first appearance.
	PinClassOrder()
	// ManifestPath returns the path the manifest is written to at
	// Flush.
	ManifestPath() string
}

// ShardedCSVSink is a Sink that writes the stream as a sharded data
// set: CSV shard files of at most rowsPerShard tuples each, named
// <prefix>-00000.csv, <prefix>-00001.csv, ..., plus a manifest at
// <prefix>.manifest.json describing them, including an XXH64 checksum
// of each shard file's bytes. Rows land in shard files in stream
// order, so reading the set back through ShardedSource yields exactly
// the written stream.
type ShardedCSVSink struct {
	prefix       string
	schema       *Schema
	rowsPerShard int

	f       *os.File
	h       *xxh64
	w       *bufio.Writer
	class   [][]byte // escaped class fields by label
	buf     []byte
	curRows int

	shards  []ShardInfo
	classes classTracker
	flushed bool
}

// NewShardedCSVSink returns a sink writing shard files and a manifest
// under the given path prefix. rowsPerShard caps the tuples per shard
// file and must be positive. Labels resolve against schema at Write
// time, so a streaming source's live schema works.
func NewShardedCSVSink(prefix string, rowsPerShard int, schema *Schema) (*ShardedCSVSink, error) {
	if rowsPerShard <= 0 {
		return nil, fmt.Errorf("rows per shard %d, want > 0: %w", rowsPerShard, ErrBadManifest)
	}
	if schema.NumAttrs() == 0 {
		return nil, ErrNoAttributes
	}
	s := &ShardedCSVSink{
		prefix:       prefix,
		schema:       schema,
		rowsPerShard: rowsPerShard,
	}
	s.classes.init(schema)
	return s, nil
}

// PinClassOrder implements ShardSink.
func (s *ShardedCSVSink) PinClassOrder() { s.classes.pin() }

// ManifestPath returns the path the manifest is written to at Flush.
func (s *ShardedCSVSink) ManifestPath() string {
	return s.prefix + ".manifest.json"
}

// shardPath returns the path of shard i.
func (s *ShardedCSVSink) shardPath(i int) string {
	return fmt.Sprintf("%s-%05d.csv", s.prefix, i)
}

// openShard starts shard file len(s.shards) and writes its header.
func (s *ShardedCSVSink) openShard() error {
	f, err := os.Create(s.shardPath(len(s.shards)))
	if err != nil {
		return err
	}
	s.f = f
	s.h = newXXH64()
	s.w = bufio.NewWriter(&hashingWriter{w: f, h: s.h})
	s.curRows = 0
	_, err = s.w.Write(csvHeader(s.schema))
	return err
}

// closeShard finishes the open shard file and records it in the
// manifest's shard list.
func (s *ShardedCSVSink) closeShard() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.shards = append(s.shards, ShardInfo{
		Path:     filepath.Base(s.shardPath(len(s.shards))),
		Rows:     s.curRows,
		Checksum: formatChecksum(s.h.Sum64()),
	})
	s.f = nil
	s.w = nil
	return nil
}

// Write implements Sink, splitting blocks across shard boundaries as
// needed.
func (s *ShardedCSVSink) Write(b *Block) error {
	m := s.schema.NumAttrs()
	if len(b.Cols) != m {
		return fmt.Errorf("block has %d columns, schema %d: %w", len(b.Cols), m, ErrSchemaMismatch)
	}
	for _, label := range b.Labels {
		if _, err := s.classes.resolve(label); err != nil {
			return err
		}
	}
	s.class = classFields(s.class, s.schema.ClassNames)
	for lo := 0; lo < b.NumRows(); {
		if s.f == nil {
			if err := s.openShard(); err != nil {
				return err
			}
		}
		hi := min(b.NumRows(), lo+s.rowsPerShard-s.curRows)
		s.buf = appendCSVRows(s.buf[:0], b, lo, hi, s.class)
		if _, err := s.w.Write(s.buf); err != nil {
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

// NextShard implements ShardSink: the open shard is finished (an empty
// header-only one is created first if none is open), so the next row
// starts a new shard file.
func (s *ShardedCSVSink) NextShard() error {
	if s.f == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	return s.closeShard()
}

// Flush implements Sink: it finishes the open shard, writes the
// manifest, and makes the set readable. An empty stream produces one
// empty shard (header only) so the set round-trips like an empty CSV.
func (s *ShardedCSVSink) Flush() error {
	if s.flushed {
		return nil
	}
	if s.f == nil && len(s.shards) == 0 {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	if s.f != nil {
		if err := s.closeShard(); err != nil {
			return err
		}
	}
	s.flushed = true
	m := &Manifest{
		Version:    ManifestVersion,
		Format:     FormatCSV,
		AttrNames:  append([]string(nil), s.schema.AttrNames...),
		ClassNames: s.classes.classNames(),
		Shards:     s.shards,
	}
	return WriteManifest(m, s.ManifestPath())
}
