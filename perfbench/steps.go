package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"privtree"
	"privtree/internal/conformance"
	"privtree/internal/dataset"
	"privtree/internal/pipeline"
	"privtree/internal/transform"
)

// stepMain runs one batch step in its own process. Each step takes the
// flags of the matching privtree subcommand (cmd/privtree), makes the
// same calls in the same order, and prints the same standard output,
// so its artifacts are byte-identical to the CLI's. The one departure
// is encode -manifest, which writes binary shards (prefix -out) where
// the CLI can only write one CSV. With -trace the step also times its
// layer calls and writes the spans to that file when it ends.
func stepMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "step: want encode, mine, decode or verify")
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV")
	manifest := fs.String("manifest", "", "sharded input: manifest JSON")
	out := fs.String("out", "", "output file (encode -manifest: binary shard prefix)")
	keyPath := fs.String("key", "", "key JSON")
	treePath := fs.String("tree", "", "tree JSON")
	orig := fs.String("orig", "", "original CSV")
	seed := fs.Int64("seed", 1, "random seed")
	tracePath := fs.String("trace", "", "time the layer calls and write the spans to this JSON file")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var tr *tracer
	if *tracePath != "" {
		tr = newTracer()
	}
	var err error
	switch args[0] {
	case "encode":
		if *manifest != "" {
			err = encodeShardedStep(tr, stdout, *manifest, *out, *keyPath, *seed)
		} else {
			err = encodeStep(tr, stdout, *in, *out, *keyPath, *seed)
		}
	case "mine":
		err = mineStep(tr, stdout, *in, *manifest, *out)
	case "decode":
		err = decodeStep(tr, stdout, *treePath, *orig, *manifest, *keyPath)
	case "verify":
		err = verifyStep(tr, stdout, *manifest, *keyPath)
	default:
		err = fmt.Errorf("unknown step %q", args[0])
	}
	if tr != nil {
		if e := tr.write(*tracePath); err == nil {
			err = e
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "privtree:", err)
		return 1
	}
	return 0
}

// encodeOptions are privtree encode's defaults: -strategy maxmp -w 20
// -minwidth 5 -workers 0.
func encodeOptions() privtree.EncodeOptions {
	return privtree.EncodeOptions{Strategy: privtree.StrategyMaxMP, Breakpoints: 20, MinPieceWidth: 5}
}

// treeConfig is the tree flags' defaults: -criterion gini -minleaf 1
// -maxdepth 0, with mine's -workers 0.
func treeConfig() privtree.TreeConfig {
	return privtree.TreeConfig{Criterion: privtree.Gini, MinLeaf: 1}
}

// encodeStep mirrors privtree encode -in.
func encodeStep(tr *tracer, stdout io.Writer, in, out, keyPath string, seed int64) error {
	var d *privtree.Dataset
	if err := tr.call("encode.dataset.read_csv", func() (err error) {
		d, err = privtree.ReadCSVFile(in)
		return err
	}); err != nil {
		return err
	}
	var key *privtree.Key
	if err := tr.call("encode.pipeline.build_key", func() (err error) {
		key, err = privtree.BuildKey(d, encodeOptions(), seed)
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("encode.transform.save_key", func() error { return privtree.SaveKey(key, keyPath) }); err != nil {
		return err
	}
	outSchema, err := pipeline.OutputSchema(key, d.Schema())
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	sink := tr.sink(dataset.NewCSVSink(f, outSchema), "encode.dataset.csv_sink", "encode.pipeline.apply")
	if err := tr.call("encode.pipeline.apply", func() error {
		return pipeline.ApplyStream(context.Background(), key, dataset.NewDatasetSource(d), sink, 0, 0)
	}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "encoded %d tuples × %d attributes → %s (key: %s)\n",
		d.NumTuples(), d.NumAttrs(), out, keyPath)
	return nil
}

// encodeShardedStep mirrors privtree encode -manifest, except that the
// encoded rows go to binary shards with the input's shard size.
func encodeShardedStep(tr *tracer, stdout io.Writer, manifestPath, outPrefix, keyPath string, seed int64) error {
	src, err := privtree.OpenSharded(manifestPath)
	if err != nil {
		return err
	}
	defer src.Close()
	var key *privtree.Key
	if err := tr.call("encode.pipeline.build_key_sharded", func() (err error) {
		key, err = privtree.BuildKeySharded(src, encodeOptions(), seed)
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("encode.transform.save_key", func() error { return privtree.SaveKey(key, keyPath) }); err != nil {
		return err
	}
	outSchema, err := pipeline.OutputSchema(key, src.Schema())
	if err != nil {
		return err
	}
	bin, err := dataset.NewBinaryShardSink(outPrefix, src.ShardRows(0), outSchema)
	if err != nil {
		return err
	}
	sink := tr.sink(bin, "encode.dataset.bin_sink", "encode.pipeline.apply")
	if err := tr.call("encode.pipeline.apply", func() error {
		return pipeline.ApplySharded(key, src, sink, 0, 0)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "encoded %d tuples × %d attributes from %d shard(s) → %s (key: %s)\n",
		src.Total(), src.Schema().NumAttrs(), src.NumShards(), bin.ManifestPath(), keyPath)
	return nil
}

// mineStep mirrors privtree mine -out, over -in or -manifest.
func mineStep(tr *tracer, stdout io.Writer, in, manifestPath, out string) error {
	cfg := treeConfig()
	var t *privtree.Tree
	var accuracy float64
	if manifestPath != "" {
		src, err := privtree.OpenSharded(manifestPath)
		if err != nil {
			return err
		}
		defer src.Close()
		if err := tr.call("mine.tree.build_sharded", func() (err error) {
			t, err = privtree.MineSharded(src, cfg)
			return err
		}); err != nil {
			return err
		}
		if err := tr.call("mine.tree.accuracy", func() (err error) {
			accuracy, err = t.AccuracySource(src)
			return err
		}); err != nil {
			return err
		}
	} else {
		var d *privtree.Dataset
		if err := tr.call("mine.dataset.read_csv", func() (err error) {
			d, err = privtree.ReadCSVFile(in)
			return err
		}); err != nil {
			return err
		}
		if err := tr.call("mine.tree.build", func() (err error) {
			t, err = privtree.Mine(d, cfg)
			return err
		}); err != nil {
			return err
		}
		_ = tr.call("mine.tree.accuracy", func() error {
			accuracy = t.Accuracy(d)
			return nil
		})
	}
	fmt.Fprintf(stdout, "tree: %d nodes, %d leaves, depth %d, training accuracy %.2f%%\n",
		t.NumNodes(), t.NumLeaves(), t.Depth(), 100*accuracy)
	var blob []byte
	if err := tr.call("mine.tree.marshal", func() (err error) {
		blob, err = privtree.MarshalTree(t)
		return err
	}); err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "tree written to", out)
	return nil
}

// readOriginal mirrors the CLI's readOriginal, naming the span after
// the reader it uses.
func readOriginal(tr *tracer, step, csvPath, manifestPath string) (d *privtree.Dataset, err error) {
	if manifestPath != "" {
		err = tr.call(step+".dataset.read_sharded", func() (err error) {
			d, err = privtree.ReadShardedFile(manifestPath)
			return err
		})
		return d, err
	}
	err = tr.call(step+".dataset.read_csv", func() (err error) {
		d, err = privtree.ReadCSVFile(csvPath)
		return err
	})
	return d, err
}

// decodeStep mirrors privtree decode -tree, over -orig or -manifest.
func decodeStep(tr *tracer, stdout io.Writer, treePath, orig, manifestPath, keyPath string) error {
	cfg := treeConfig()
	d, err := readOriginal(tr, "decode", orig, manifestPath)
	if err != nil {
		return err
	}
	var key *privtree.Key
	if err := tr.call("decode.transform.load_key", func() (err error) {
		key, err = privtree.LoadKey(keyPath)
		return err
	}); err != nil {
		return err
	}
	tb, err := os.ReadFile(treePath)
	if err != nil {
		return err
	}
	var mined *privtree.Tree
	if err := tr.call("decode.tree.unmarshal", func() (err error) {
		mined, err = privtree.UnmarshalTree(tb)
		return err
	}); err != nil {
		return err
	}
	var decoded *privtree.Tree
	if err := tr.call("decode.tree.decode", func() (err error) {
		decoded, err = privtree.DecodeTree(mined, key, d)
		return err
	}); err != nil {
		return err
	}
	var direct *privtree.Tree
	if err := tr.call("decode.tree.build", func() (err error) {
		direct, err = privtree.Mine(d, cfg)
		return err
	}); err != nil {
		return err
	}
	var same bool
	_ = tr.call("decode.tree.equivalent", func() error {
		same = privtree.SameOutcome(direct, decoded, d)
		return nil
	})
	fmt.Fprintf(stdout, "decoded tree (%d nodes, depth %d); identical to direct mining: %v\n",
		decoded.NumNodes(), decoded.Depth(), same)
	fmt.Fprint(stdout, decoded)
	return nil
}

// verifyStep mirrors privtree verify -manifest -key.
func verifyStep(tr *tracer, stdout io.Writer, manifestPath, keyPath string) error {
	d, err := readOriginal(tr, "verify", "", manifestPath)
	if err != nil {
		return err
	}
	blob, err := os.ReadFile(keyPath)
	if err != nil {
		return err
	}
	key, err := transform.UnmarshalKeyUnvalidated(blob)
	if err != nil {
		return err
	}
	var rep *conformance.Report
	_ = tr.call("verify.conformance.check_key", func() error {
		rep = conformance.CheckKey(d, key)
		return nil
	})
	if rep.Ok() {
		_ = tr.call("verify.conformance.check_guarantee", func() error {
			rep.Merge(conformance.CheckGuarantee(d, key, treeConfig()))
			return nil
		})
	}
	fmt.Fprintln(stdout, rep)
	return rep.Err()
}
