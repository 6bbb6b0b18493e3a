package tree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/runs"
	"privtree/internal/synth"
)

// shardedTreeFixture builds a numeric dataset with heavy value ties
// (to exercise group boundaries and tie-breaking) round-tripped
// through CSV text so its floats match the sharded set's parse
// exactly, like the real pipeline.
func shardedTreeFixture(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	raw := dataset.New([]string{"a", "b", "c", "d"}, []string{"neg", "pos"})
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(40))
		b := rng.NormFloat64() * 10
		c := float64(i % 9)
		e := rng.Float64() * 100
		label := 0
		if a+b > 22 || (c > 4 && e > 55) {
			label = 1
		}
		if rng.Float64() < 0.06 {
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
	d, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeShardedTree writes d as a sharded set in the given format and
// opens it.
func writeShardedTree(t *testing.T, d *dataset.Dataset, dir, format string, rowsPerShard int) *dataset.ShardedSource {
	t.Helper()
	var sink dataset.ShardSink
	var err error
	prefix := filepath.Join(dir, "set")
	switch format {
	case dataset.FormatCSV:
		sink, err = dataset.NewShardedCSVSink(prefix, rowsPerShard, d.Schema())
	case dataset.FormatBin:
		sink, err = dataset.NewBinaryShardSink(prefix, rowsPerShard, d.Schema())
	default:
		t.Fatalf("format %q", format)
	}
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
	ms, err := dataset.OpenSharded(sink.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms
}

// budgetFixture is a relation whose root splits into two children of
// exactly half rows each: attribute "x" separates two noisy halves
// perfectly, and attribute "y" carries the noise the children split
// on. Sharded at half rows per shard and mined with one worker, the
// materialization budget is exactly one child.
func budgetFixture(t *testing.T, half int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	d := dataset.New([]string{"x", "y"}, []string{"a", "b"})
	for i := 0; i < 2*half; i++ {
		x := float64(i % 2)
		y := float64(rng.Intn(12))
		label := i % 2
		if y > 8 {
			label = 1 - label
		}
		if err := d.Append([]float64{x, y}, label); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// mirrored returns d with every attribute negated, which flips the
// canonical orientation of every attribute whose class string is not a
// palindrome.
func mirrored(d *dataset.Dataset) *dataset.Dataset {
	m := d.Clone()
	for _, col := range m.Cols {
		for i := range col {
			col[i] = -col[i]
		}
	}
	return m
}

// TestBuildShardedMatchesBuild proves the out-of-core induction mines
// byte-identical trees to the in-memory path across criteria,
// orientations, stop parameters, shard formats, shard counts and
// worker counts. The cases steer the hybrid builder through its
// paths: grouping only, materializing a node exactly at the budget,
// many batches (one per scan, several nodes in one), stop limits hit
// inside materialized subtrees, canonical flips inside them, unequal
// shards and a single shard.
func TestBuildShardedMatchesBuild(t *testing.T) {
	ties := shardedTreeFixture(t, 3000)
	allCriteria := []Config{
		{MinLeaf: 5, Criterion: Gini},
		{MinLeaf: 5, Criterion: Entropy},
		{MinLeaf: 5, Criterion: GainRatio},
	}
	canonical := []Orientation{OrientationCanonical}
	cases := []struct {
		name string
		d    *dataset.Dataset
		// rowsPerShard sizes the shards; the last one takes the rest.
		rowsPerShard []int
		cfgs         []Config
		orients      []Orientation
	}{
		{name: "ties", d: ties, rowsPerShard: []int{3000, 1000}, cfgs: allCriteria,
			orients: []Orientation{OrientationCanonical, OrientationRaw}},
		{name: "node-at-budget", d: budgetFixture(t, 150), rowsPerShard: []int{150}, cfgs: allCriteria, orients: canonical},
		{name: "many-batches", d: ties, rowsPerShard: []int{100, 37}, cfgs: allCriteria[:1], orients: canonical},
		{name: "limits-in-subtrees", d: ties, rowsPerShard: []int{250}, orients: canonical, cfgs: []Config{
			{MaxDepth: 7, MinLeaf: 3},
			{MaxDepth: 9, MinLeaf: 12, Criterion: Entropy},
			{MinLeaf: 40, Criterion: GainRatio},
		}},
		{name: "flips-in-subtrees", d: mirrored(ties), rowsPerShard: []int{700}, cfgs: allCriteria, orients: canonical},
	}
	for _, tc := range cases {
		if _, flipped := canonicalOrientation(tc.d); tc.name == "flips-in-subtrees" && !slices.Contains(flipped, true) {
			t.Fatalf("%s: no attribute flips", tc.name)
		}
		srcs := map[string]*dataset.ShardedSource{}
		for _, format := range []string{dataset.FormatCSV, dataset.FormatBin} {
			for _, rows := range tc.rowsPerShard {
				srcs[fmt.Sprint(format, rows)] = writeShardedTree(t, tc.d, t.TempDir(), format, rows)
			}
		}
		for _, cfg := range tc.cfgs {
			for _, o := range tc.orients {
				cfg.Orientation = o
				cfg.Workers = 1
				want, err := Build(tc.d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, err := Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				for _, format := range []string{dataset.FormatCSV, dataset.FormatBin} {
					for _, rows := range tc.rowsPerShard {
						src := srcs[fmt.Sprint(format, rows)]
						for _, workers := range []int{1, 4, 32} {
							scfg := cfg
							scfg.Workers = workers
							reg := obs.NewRegistry()
							obs.Enable(reg)
							got, err := BuildSharded(src, scfg)
							obs.Disable()
							if err != nil {
								t.Fatal(err)
							}
							got.Config.Workers = want.Config.Workers
							gotBytes, err := Marshal(got)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(gotBytes, wantBytes) {
								t.Fatalf("%s %+v format=%s rows/shard=%d workers=%d: sharded tree differs from in-memory",
									tc.name, cfg, format, rows, workers)
							}
							budget := min(workers, src.NumShards()) * rows
							batchMax := reg.Snapshot().Gauges["tree.sharded_batch_rows_max"]
							if batchMax > int64(budget) {
								t.Fatalf("%s format=%s rows/shard=%d workers=%d: batch of %d rows over the budget %d",
									tc.name, format, rows, workers, batchMax, budget)
							}
							if tc.name == "node-at-budget" && workers == 1 && batchMax != int64(budget) {
								t.Fatalf("%s: largest batch %d rows, want exactly the budget %d", tc.name, batchMax, budget)
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildShardedDepthAndMinLeaf checks the pruning-relevant stop
// parameters behave identically out-of-core.
func TestBuildShardedDepthAndMinLeaf(t *testing.T) {
	const n = 1200
	d := shardedTreeFixture(t, n)
	src := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, 400)
	for _, cfg := range []Config{
		{MaxDepth: 2},
		{MaxDepth: 5, MinLeaf: 40},
		{MinLeaf: 200},
	} {
		want, err := Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildSharded(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("cfg %+v: sharded tree differs from in-memory", cfg)
		}
	}
}

// TestBuildShardedScanBound pins the pass count and the memory bound
// of the hybrid builder on the benchmark's shape, 20k covertype rows in
// 8 binary shards, through the telemetry an operator reads: the
// tree.sharded_scans counter and the tree.sharded_batch_rows_max
// gauge. The level-per-scan builder made 41 scans here.
func TestBuildShardedScanBound(t *testing.T) {
	const n, shards = 20000, 8
	cov, err := synth.Covertype(rand.New(rand.NewSource(1)), n)
	if err != nil {
		t.Fatal(err)
	}
	// Mine what the CLI mines: the relation read back from CSV, with no
	// categorical metadata and classes in first-appearance order, as
	// the shard manifest records them.
	var buf bytes.Buffer
	if err := cov.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const shardRows = n / shards
	src := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, shardRows)
	cfg := Config{MinLeaf: 1}
	want, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		obs.Enable(reg)
		scfg := cfg
		scfg.Workers = workers
		got, err := BuildSharded(src, scfg)
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		got.Config.Workers = want.Config.Workers
		gotBytes, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("workers=%d: sharded tree differs from in-memory", workers)
		}
		snap := reg.Snapshot()
		scans := snap.Counters["tree.sharded_scans"]
		batchMax := snap.Gauges["tree.sharded_batch_rows_max"]
		t.Logf("workers=%d: depth %d, %d scans, largest batch %d rows", workers, got.Depth(), scans, batchMax)
		if scans < 2 || scans > 12 {
			t.Errorf("workers=%d: %d scans, want 2..12", workers, scans)
		}
		if batchMax <= 0 || batchMax > int64(workers*shardRows) {
			t.Errorf("workers=%d: largest batch %d rows, want 1..%d (workers × largest shard)", workers, batchMax, workers*shardRows)
		}
		spans := map[string]int64{}
		for _, st := range snap.Spans {
			spans[st.Path] = st.Count
		}
		if spans["mine/build_sharded/scan"] != scans || spans["mine/build_sharded/subtree"] == 0 {
			t.Errorf("workers=%d: spans %v, want one mine/build_sharded/scan per scan and mine/build_sharded/subtree", workers, spans)
		}
	}
}

// TestNonFiniteInputFailsFast is the regression for a split threshold
// that sends every row to one side: a NaN value once hung both builders
// (Build's equal-value loop never advanced, BuildSharded routed every
// row right of a NaN threshold), and so did ±Inf, whose midpoint is NaN
// or infinite. Non-finite values must now fail with
// dataset.ErrNonFiniteValue, well inside the deadline.
func TestNonFiniteInputFailsFast(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, n := range []int{5, 600} {
			d := shardedTreeFixture(t, n)
			d.Cols[1][n/2] = bad
			csvSrc := writeShardedTree(t, d, t.TempDir(), dataset.FormatCSV, (n+2)/3)
			binSrc := writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, (n+2)/3)
			for name, build := range map[string]func() (*Tree, error){
				"Build":             func() (*Tree, error) { return Build(d, Config{}) },
				"BuildSharded(csv)": func() (*Tree, error) { return BuildSharded(csvSrc, Config{}) },
				"BuildSharded(bin)": func() (*Tree, error) { return BuildSharded(binSrc, Config{}) },
			} {
				err := withDeadline(t, fmt.Sprintf("%v n=%d %s", bad, n, name), func() error {
					_, err := build()
					return err
				})
				if !errors.Is(err, dataset.ErrNonFiniteValue) {
					t.Errorf("%v n=%d %s: err %v, want ErrNonFiniteValue", bad, n, name, err)
				}
			}
		}
	}
}

// TestExtremeFiniteSplits covers the finite pairs whose plain mean does
// not separate them: two large values whose sum overflows to ±Inf, and
// adjacent floats whose mean rounds up to the larger one. Either once
// sent every row to one child and recursed forever; now both builders
// finish, agree byte for byte, and split exactly between the two.
func TestExtremeFiniteSplits(t *testing.T) {
	one := math.Nextafter(1, 2)
	for _, pair := range [][2]float64{
		{1.5e308, 1.7e308},
		{-1.7e308, -1.5e308},
		{-math.MaxFloat64, math.MaxFloat64},
		{one, math.Nextafter(one, 2)},
	} {
		d := dataset.New([]string{"x"}, []string{"lo", "hi"})
		for i := 0; i < 6; i++ {
			if err := d.Append([]float64{pair[i%2]}, i%2); err != nil {
				t.Fatal(err)
			}
		}
		var want, got []byte
		err := withDeadline(t, fmt.Sprint(pair), func() error {
			tr, err := Build(d, Config{})
			if err != nil {
				return err
			}
			if tr.Root.Leaf || tr.Root.Threshold < pair[0] || tr.Root.Threshold >= pair[1] {
				return fmt.Errorf("root %+v does not split in [%v, %v)", tr.Root, pair[0], pair[1])
			}
			if want, err = Marshal(tr); err != nil {
				return err
			}
			tr, err = BuildSharded(writeShardedTree(t, d, t.TempDir(), dataset.FormatBin, 2), Config{})
			if err != nil {
				return err
			}
			got, err = Marshal(tr)
			return err
		})
		if err != nil {
			t.Errorf("%v: %v", pair, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%v: BuildSharded differs from Build:\n%s\nvs\n%s", pair, got, want)
		}
	}
}

// withDeadline runs f and returns its error, failing the test at once
// if f is still running after 10s.
func withDeadline(t *testing.T, name string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still running after 10s", name)
		return nil
	}
}

// TestBuildShardedErrors covers the degenerate inputs.
func TestBuildShardedErrors(t *testing.T) {
	d := dataset.New([]string{"x"}, []string{"a"})
	src := writeShardedTree(t, d, t.TempDir(), dataset.FormatCSV, 10)
	if _, err := BuildSharded(src, Config{}); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty set: err = %v, want ErrEmptyData", err)
	}
}

// TestGroupClassesMatchesPresort cross-checks the class-group scan
// inputs against the in-memory presort on a small handmade column.
func TestGroupClassesMatchesPresort(t *testing.T) {
	values := []float64{3, 1, 2, 1, 3, 2, 2}
	labels := []int{1, 0, 1, 1, 1, 1, 0}
	groups := runs.GroupClasses(values, labels, 2)
	wantVals := []float64{1, 2, 3}
	wantCounts := [][]int{{1, 1}, {1, 2}, {0, 2}}
	if len(groups) != len(wantVals) {
		t.Fatalf("got %d groups, want %d", len(groups), len(wantVals))
	}
	for i, g := range groups {
		if g.Value != wantVals[i] {
			t.Errorf("group %d value %v, want %v", i, g.Value, wantVals[i])
		}
		if fmt.Sprint(g.Counts) != fmt.Sprint(wantCounts[i]) {
			t.Errorf("group %d counts %v, want %v", i, g.Counts, wantCounts[i])
		}
	}
	// Splitting across shards and merging reproduces the whole.
	left := runs.GroupClasses(values[:4], labels[:4], 2)
	right := runs.GroupClasses(values[4:], labels[4:], 2)
	merged := runs.MergeClassGroups([][]runs.ClassGroup{left, right})
	if fmt.Sprint(merged) != fmt.Sprint(groups) {
		t.Errorf("merged %v, want %v", merged, groups)
	}
}
