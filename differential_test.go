package privtree

// The differential equivalence battery for the out-of-core paths: the
// same logical relation represented three ways — in memory, as CSV
// shards, and as binary shards (produced by ConvertSharded from the
// CSV set, so conversion itself is under test) — must yield bit-for-
// bit identical artifacts at every stage of the pipeline: the key
// JSON, the encoded output bytes, the mined tree, and the decode-side
// verification report. The sweep crosses shard counts, worker counts
// and breakpoint strategies; a separate stress case hammers the
// parallel paths for the -race runs, and a Short-guarded case proves
// the mine-side identity at the 1M-row scale the format exists for.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/tree"
)

var (
	diffShardCounts = []int{1, 3, 14}
	diffWorkers     = []int{1, 4, 32}
	// diffTreeConfigs steer the sharded miner's materialized subtrees
	// into every criterion and into depth and leaf-size limits.
	diffTreeConfigs = []TreeConfig{
		{MinLeaf: 5},
		{Criterion: tree.Entropy, MaxDepth: 6, MinLeaf: 2},
		{Criterion: tree.GainRatio, MinLeaf: 3},
	}
	diffStrategies = []struct {
		name string
		opts EncodeOptions
	}{
		{"none", EncodeOptions{Strategy: StrategyNone}},
		{"bp", EncodeOptions{Strategy: StrategyBP, Breakpoints: 6}},
		{"maxmp", EncodeOptions{Strategy: StrategyMaxMP}},
	}
)

// diffFixture builds a numeric relation with heavy value ties (to
// exercise group boundaries in the out-of-core split search),
// round-tripped through CSV text so its floats match the CSV shards'
// parse bit for bit.
func diffFixture(t testing.TB, n int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	raw := NewDataset([]string{"a", "b", "c", "d"}, []string{"neg", "pos"})
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(30))
		b := rng.NormFloat64() * 8
		c := float64(i % 7)
		e := rng.Float64() * 50
		label := 0
		if a+b > 17 || (c > 3 && e > 30) {
			label = 1
		}
		if rng.Float64() < 0.05 {
			label = 1 - label
		}
		if err := raw.Append([]float64{a, b, c, e}, label); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeDiffCSVShards writes d as a CSV-sharded set and returns the
// manifest path.
func writeDiffCSVShards(t testing.TB, d *Dataset, dir string, shards int) string {
	t.Helper()
	rowsPerShard := (d.NumTuples() + shards - 1) / shards
	sink, err := dataset.NewShardedCSVSink(filepath.Join(dir, "csvset"), rowsPerShard, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewDatasetSource(d)
	for {
		blk, err := src.Next(0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Write(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.ManifestPath()
}

// openDiff opens a sharded set and schedules its close.
func openDiff(t testing.TB, manifest string) *ShardedSource {
	t.Helper()
	src, err := OpenSharded(manifest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// keyJSON marshals a key.
func keyJSON(t testing.TB, k *Key) []byte {
	t.Helper()
	b, err := MarshalKey(k)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// treeJSON marshals a tree with the Workers knob normalized away (it
// does not affect the mined tree and is not part of its identity).
func treeJSON(t testing.TB, tr *Tree) []byte {
	t.Helper()
	c := *tr
	c.Config.Workers = 0
	b, err := MarshalTree(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// applyShardedBytes encodes a sharded source with key into CSV bytes.
func applyShardedBytes(t testing.TB, key *Key, src *ShardedSource, workers int) []byte {
	t.Helper()
	outSchema, err := pipeline.OutputSchema(key, src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.ApplySharded(key, src, dataset.NewCSVSink(&buf, outSchema), 0, workers); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDifferentialShardEquivalence is the core battery: key bytes,
// encoded output bytes and mined tree bytes must agree between the
// in-memory pipeline, CSV shards and binary shards at every
// shards × workers × strategy point.
func TestDifferentialShardEquivalence(t *testing.T) {
	const n = 600
	const seed = 7
	d := diffFixture(t, n)
	directBytes := make([][]byte, len(diffTreeConfigs))
	for ci, cfg := range diffTreeConfigs {
		direct, err := Mine(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		directBytes[ci] = treeJSON(t, direct)
	}

	// In-memory encode references, one per strategy.
	refKey := make([][]byte, len(diffStrategies))
	refEnc := make([][]byte, len(diffStrategies))
	for si, strat := range diffStrategies {
		key, err := BuildKey(d, strat.opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		refKey[si] = keyJSON(t, key)
		outSchema, err := pipeline.OutputSchema(key, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&buf, outSchema), 0, 1); err != nil {
			t.Fatal(err)
		}
		refEnc[si] = buf.Bytes()
	}

	for _, shards := range diffShardCounts {
		dir := t.TempDir()
		csvManifest := writeDiffCSVShards(t, d, dir, shards)
		binManifest, err := ConvertSharded(csvManifest, filepath.Join(dir, "binset"), dataset.FormatBin)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []struct {
			name, manifest string
		}{{"csv", csvManifest}, {"bin", binManifest}} {
			for _, workers := range diffWorkers {
				src := openDiff(t, format.manifest)
				for ci, cfg := range diffTreeConfigs {
					cfg.Workers = workers
					mined, err := MineSharded(src, cfg)
					if err != nil {
						t.Fatalf("shards=%d %s workers=%d %+v: %v", shards, format.name, workers, cfg, err)
					}
					if !bytes.Equal(treeJSON(t, mined), directBytes[ci]) {
						t.Errorf("shards=%d %s workers=%d %+v: sharded mine differs from in-memory",
							shards, format.name, workers, cfg)
					}
				}
				for si, strat := range diffStrategies {
					opts := strat.opts
					opts.Workers = workers
					key, err := BuildKeySharded(src, opts, seed)
					if err != nil {
						t.Fatalf("shards=%d %s workers=%d %s: %v",
							shards, format.name, workers, strat.name, err)
					}
					if !bytes.Equal(keyJSON(t, key), refKey[si]) {
						t.Errorf("shards=%d %s workers=%d %s: sharded key differs from in-memory",
							shards, format.name, workers, strat.name)
					}
					if got := applyShardedBytes(t, key, src, workers); !bytes.Equal(got, refEnc[si]) {
						t.Errorf("shards=%d %s workers=%d %s: encoded bytes differ from in-memory",
							shards, format.name, workers, strat.name)
					}
				}
			}
		}
	}
}

// diffVerifyReport runs the decode-side verification for a tree mined
// from encoded data and renders it as a canonical report string:
// divergence against direct mining (must be empty), the decoded tree
// bytes, and the decoded tree's accuracy on the original data.
func diffVerifyReport(t testing.TB, d *Dataset, direct, minedEnc *Tree, key *Key) string {
	t.Helper()
	decoded, err := DecodeTree(minedEnc, key, d)
	if err != nil {
		t.Fatal(err)
	}
	div := tree.DivergenceOn(direct, decoded, d)
	if div != "" {
		t.Errorf("decoded tree diverges from direct mining: %s", div)
	}
	return fmt.Sprintf("divergence=%q decoded=%x acc=%.17g",
		div, treeJSON(t, decoded), decoded.Accuracy(d))
}

// TestDifferentialVerifyReport closes the loop: encode out-of-core
// into binary shards, mine the encoded shards out-of-core, decode, and
// require the verification report to be byte-identical to the fully
// in-memory round trip — for every strategy.
func TestDifferentialVerifyReport(t *testing.T) {
	const n = 600
	const seed = 11
	const shards = 3
	const workers = 4
	d := diffFixture(t, n)
	cfg := TreeConfig{MinLeaf: 5}
	direct, err := Mine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvManifest := writeDiffCSVShards(t, d, dir, shards)
	binManifest, err := ConvertSharded(csvManifest, filepath.Join(dir, "binset"), dataset.FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range diffStrategies {
		opts := strat.opts
		opts.Workers = workers

		// In-memory reference: build key, encode, mine, decode.
		key, err := BuildKey(d, opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		outSchema, err := pipeline.OutputSchema(key, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		coll := dataset.NewCollector(outSchema)
		if err := pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), coll, 0, 1); err != nil {
			t.Fatal(err)
		}
		encD, err := coll.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		minedRef, err := Mine(encD, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantReport := diffVerifyReport(t, d, direct, minedRef, key)

		for _, m := range []struct {
			name, manifest string
		}{{"csv", csvManifest}, {"bin", binManifest}} {
			src := openDiff(t, m.manifest)
			skey, err := BuildKeySharded(src, opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Encode the shards out-of-core straight into a
			// binary-sharded set, then mine that set out-of-core.
			encPrefix := filepath.Join(t.TempDir(), "enc")
			encSink, err := dataset.NewBinaryShardSink(encPrefix, (n+shards-1)/shards, outSchema)
			if err != nil {
				t.Fatal(err)
			}
			if err := pipeline.ApplySharded(skey, src, encSink, 0, workers); err != nil {
				t.Fatal(err)
			}
			encSrc := openDiff(t, encSink.ManifestPath())
			scfg := cfg
			scfg.Workers = workers
			minedEnc, err := MineSharded(encSrc, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(treeJSON(t, minedEnc), treeJSON(t, minedRef)) {
				t.Errorf("%s %s: tree mined from encoded shards differs from in-memory encoded mine",
					m.name, strat.name)
			}
			if got := diffVerifyReport(t, d, direct, minedEnc, skey); got != wantReport {
				t.Errorf("%s %s: verification report differs from in-memory round trip\n got: %s\nwant: %s",
					m.name, strat.name, got, wantReport)
			}
		}
	}
}

// TestDifferentialStress hammers the parallel out-of-core paths from
// several goroutines at once over independent source handles — the
// case the -race runs lean on.
func TestDifferentialStress(t *testing.T) {
	const n = 1500
	const shards = 14
	d := diffFixture(t, n)
	dir := t.TempDir()
	csvManifest := writeDiffCSVShards(t, d, dir, shards)
	binManifest, err := ConvertSharded(csvManifest, filepath.Join(dir, "binset"), dataset.FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TreeConfig{MinLeaf: 5, Workers: 32}
	direct, err := Mine(d, TreeConfig{MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	directBytes := treeJSON(t, direct)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		manifest := csvManifest
		if g%2 == 1 {
			manifest = binManifest
		}
		wg.Add(1)
		go func(g int, manifest string) {
			defer wg.Done()
			src, err := OpenSharded(manifest)
			if err != nil {
				errs <- err
				return
			}
			defer src.Close()
			mined, err := MineSharded(src, cfg)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			if !bytes.Equal(treeJSON(t, mined), directBytes) {
				errs <- fmt.Errorf("goroutine %d: tree differs", g)
				return
			}
			key, err := BuildKeySharded(src, EncodeOptions{Workers: 32}, 3)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			applyShardedBytes(t, key, src, 32)
		}(g, manifest)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMineSharded1M is the scale acceptance case: a 1M-row
// binary-sharded set mined out-of-core must produce exactly the tree
// of the in-memory build. The generator streams straight into the
// binary sink, so both sides hold identical float bits with no text
// round trip. Bounded depth keeps the level passes tractable.
func TestMineSharded1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row scale case; skipped in -short")
	}
	n := 1_000_000
	if raceDetectorOn {
		// The identity argument is scale-free; under the race detector
		// a smaller set keeps the full-suite race run tractable while
		// still crossing every parallel path.
		n = 100_000
	}
	const shards = 14
	rng := rand.New(rand.NewSource(5))
	schema := &dataset.Schema{
		AttrNames:  []string{"a", "b", "c", "d"},
		ClassNames: []string{"neg", "pos"},
	}
	prefix := filepath.Join(t.TempDir(), "big")
	sink, err := dataset.NewBinaryShardSink(prefix, (n+shards-1)/shards, schema)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDataset(schema.AttrNames, schema.ClassNames)
	const blockRows = 8192
	blk := &dataset.Block{Cols: make([][]float64, 4)}
	for done := 0; done < n; {
		rows := blockRows
		if n-done < rows {
			rows = n - done
		}
		for a := range blk.Cols {
			blk.Cols[a] = blk.Cols[a][:0]
		}
		blk.Labels = blk.Labels[:0]
		for i := 0; i < rows; i++ {
			a := float64(rng.Intn(100))
			b := rng.NormFloat64() * 12
			c := float64((done + i) % 13)
			e := rng.Float64() * 200
			label := 0
			if a+b > 55 || (c > 6 && e > 120) {
				label = 1
			}
			if rng.Float64() < 0.04 {
				label = 1 - label
			}
			vals := [4]float64{a, b, c, e}
			for at := range blk.Cols {
				blk.Cols[at] = append(blk.Cols[at], vals[at])
			}
			blk.Labels = append(blk.Labels, label)
			if err := d.Append(vals[:], label); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Write(blk); err != nil {
			t.Fatal(err)
		}
		done += rows
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := TreeConfig{MaxDepth: 6, MinLeaf: 100, Workers: 4}
	want, err := Mine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := openDiff(t, sink.ManifestPath())
	got, err := MineSharded(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(treeJSON(t, got), treeJSON(t, want)) {
		t.Fatal("1M-row sharded mine differs from in-memory build")
	}
}
