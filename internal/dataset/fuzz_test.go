package dataset

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the CSV parser against arbitrary input: it must
// never panic, and anything it accepts must validate and round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,class\n1,2,x\n3,4,y\n")
	f.Add("a,class\n1.5,x\n")
	f.Add("")
	f.Add("a,class\nNaN,x\n")
	f.Add("a,class\n1e308,x\n1e308,x\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted CSV fails validation: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if back.NumTuples() != d.NumTuples() || back.NumAttrs() != d.NumAttrs() {
			t.Fatalf("round trip changed dimensions")
		}
	})
}

// fuzzShardBytes builds a small valid binary shard (2 attrs, 2
// classes, 3 rows) and returns its file bytes and manifest checksum —
// the honest baseline the fuzzer mutates from.
func fuzzShardBytes(f *testing.F) ([]byte, string) {
	f.Helper()
	dir := f.TempDir()
	schema := &Schema{AttrNames: []string{"x", "y"}, ClassNames: []string{"a", "b"}}
	sink, err := NewBinaryShardSink(dir+"/seed", 10, schema)
	if err != nil {
		f.Fatal(err)
	}
	blk := &Block{
		Cols:   [][]float64{{1, 2.5, -3}, {0, 1e9, 0.125}},
		Labels: []int{0, 1, 0},
	}
	if err := sink.Write(blk); err != nil {
		f.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	m, err := ReadManifest(sink.ManifestPath())
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, m.Shards[0].Path))
	if err != nil {
		f.Fatal(err)
	}
	return data, m.Shards[0].Checksum
}

// FuzzReadBinaryShard drives the binary shard reader with arbitrary
// bytes, declared row counts and checksum strings. The contract: never
// panic, and every failure is one of the typed sentinels
// (ErrCorruptShard for broken file bytes, ErrBadManifest for a
// description the bytes contradict). A stream that reads clean to EOF
// must have delivered exactly the declared rows with in-range labels.
func FuzzReadBinaryShard(f *testing.F) {
	valid, sum := fuzzShardBytes(f)
	f.Add(valid, 3, sum)                      // pristine
	f.Add(valid, 5, sum)                      // row-count lie
	f.Add(valid, 3, "xxh64:0000000000000000") // checksum mismatch
	f.Add(valid, 3, "not-a-checksum")         // malformed checksum string
	f.Add(valid[:binHeaderSize-2], 3, "")     // truncated header
	f.Add(valid[:len(valid)-5], 3, "")        // truncated trailer
	corrupt := bytes.Clone(valid)
	corrupt[binHeaderSize+6] ^= 0xFF // flip a payload byte
	f.Add(corrupt, 3, sum)
	f.Add([]byte("PVTB"), 0, "")
	f.Add([]byte{}, 0, "")
	f.Fuzz(func(t *testing.T, data []byte, declared int, checksum string) {
		schema := &Schema{AttrNames: []string{"x", "y"}, ClassNames: []string{"a", "b"}}
		src, err := NewBinaryShardSource(io.NopCloser(bytes.NewReader(data)), "fuzz", schema, declared, checksum)
		if err != nil {
			requireTypedShardErr(t, err)
			return
		}
		rows := 0
		for {
			blk, err := src.Next(0)
			if err == io.EOF {
				break
			}
			if err != nil {
				requireTypedShardErr(t, err)
				src.Close()
				return
			}
			for _, l := range blk.Labels {
				if l < 0 || l >= len(schema.ClassNames) {
					t.Fatalf("accepted out-of-range label %d", l)
				}
			}
			rows += len(blk.Labels)
		}
		if rows != declared {
			t.Fatalf("clean EOF after %d rows, declared %d", rows, declared)
		}
	})
}

// requireTypedShardErr fails unless err is one of the documented
// sentinels of the binary shard reader.
func requireTypedShardErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorruptShard) && !errors.Is(err, ErrBadManifest) && !errors.Is(err, ErrNonFiniteValue) {
		t.Fatalf("untyped error from binary shard reader: %v", err)
	}
}
