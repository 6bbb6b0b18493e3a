package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"privtree"
	"privtree/internal/dataset"
	"privtree/internal/pipeline"
)

// buildCLI builds cmd/privtree from the repository the benchmark sits
// in.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "privtree")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/privtree")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building privtree: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the privtree binary in dir and returns its standard
// output.
func runCLI(t *testing.T, bin, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("privtree %v: %v: %s", args, err, stderr.String())
	}
	return out
}

// runBench runs a benchmark step in dir and returns its standard
// output.
func runBench(t *testing.T, cfg *config, dir string, args ...string) []byte {
	t.Helper()
	sr := runStep(context.Background(), cfg, dir, args[0], false, args[1:]...)
	if !sr.ok {
		t.Fatalf("step %v: %s", args, sr.why)
	}
	return sr.out
}

func sameFile(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("%s and %s differ", a, b)
	}
}

func copyFiles(t *testing.T, from, to string, names ...string) {
	t.Helper()
	for _, n := range names {
		blob, err := os.ReadFile(filepath.Join(from, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, n), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// setupPair generates a workload's input into two directories: one
// for the benchmark's steps, one for the CLI.
func setupPair(t *testing.T, workload string) (*config, string, string) {
	t.Helper()
	cfg := smallConfig(t, workload, false)
	bench, cli := t.TempDir(), t.TempDir()
	for _, dir := range []string{bench, cli} {
		rt := &roundtrip{cfg: cfg, dir: dir, sharded: workload == "roundtrip-shard"}
		if err := rt.setup(); err != nil {
			t.Fatal(err)
		}
	}
	return cfg, bench, cli
}

// TestMirrorRoundtripMem checks that every roundtrip-mem step writes
// the same artifacts and prints the same output as privtree.
func TestMirrorRoundtripMem(t *testing.T) {
	bin := buildCLI(t)
	cfg, bench, cli := setupPair(t, "roundtrip-mem")
	rt := &roundtrip{cfg: cfg, dir: bench}
	for _, step := range rt.steps() {
		got := runBench(t, cfg, bench, step...)
		want := runCLI(t, bin, cli, step...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s prints\n%.300s\nprivtree prints\n%.300s", step[0], got, want)
		}
		files, _ := rt.artifacts(step[0])
		for _, f := range files {
			sameFile(t, filepath.Join(bench, f), filepath.Join(cli, f))
		}
	}
}

// TestMirrorRoundtripShard checks roundtrip-shard against privtree:
// the key and the encoded rows match encode -manifest's key and CSV,
// and mine, decode and verify over the benchmark's binary shards
// print and write what privtree does over the same files.
func TestMirrorRoundtripShard(t *testing.T) {
	bin := buildCLI(t)
	cfg, bench, cli := setupPair(t, "roundtrip-shard")
	rt := &roundtrip{cfg: cfg, dir: bench, sharded: true}
	steps := rt.steps()

	runBench(t, cfg, bench, steps[0]...)
	runCLI(t, bin, cli, "encode", "-manifest", "orig.manifest.json", "-out", "enc.csv", "-key", "key.json", "-seed", fmt.Sprint(cfg.seed))
	sameFile(t, filepath.Join(bench, "key.json"), filepath.Join(cli, "key.json"))
	shardRows, err := privtree.ReadShardedFile(filepath.Join(bench, "enc.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	csvRows, err := privtree.ReadCSVFile(filepath.Join(cli, "enc.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := shardRows.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := csvRows.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary-shard encode rows differ from privtree encode -manifest's CSV")
	}

	encoded, err := rt.artifacts("encode")
	if err != nil {
		t.Fatal(err)
	}
	copyFiles(t, bench, cli, encoded[1:]...) // the manifest and shards
	for _, step := range steps[1:] {
		got := runBench(t, cfg, bench, step...)
		want := runCLI(t, bin, cli, step...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s prints\n%.300s\nprivtree prints\n%.300s", step[0], got, want)
		}
	}
	sameFile(t, filepath.Join(bench, "tree.json"), filepath.Join(cli, "tree.json"))
}

// TestMirrorDaemonEncode checks that a daemon-mix encode request is
// answered with the bytes an in-process encode of its body produces at
// the same seed, and stores the same key.
func TestMirrorDaemonEncode(t *testing.T) {
	cfg := smallConfig(t, "daemon-mix", false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p, sp, err := daemonSetup(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.stop()
	const n = 5 // request number: body 5, seed cfg.seed*1e6+5
	url := fmt.Sprintf("http://%s/v1/encode?key=enc-1&overwrite=1&seed=%d", sp.addr, cfg.seed*1_000_000+n)
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, _, got, err := do(ctx, hc, url, p.csv[n], n)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("encode request: %v %v", resp, err)
	}

	d, err := privtree.ReadCSV(bytes.NewReader(p.csv[n]))
	if err != nil {
		t.Fatal(err)
	}
	key, err := privtree.BuildKey(d, encodeOptions(), cfg.seed*1_000_000+n)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := pipeline.OutputSchema(key, d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pipeline.ApplyStream(ctx, key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&want, schema), 0, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("daemon encode response differs from the in-process encode")
	}

	stored, err := hc.Get(fmt.Sprintf("http://%s/v1/tenants/default/keys/enc-1", sp.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Body.Close()
	storedKey, err := io.ReadAll(stored.Body)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := privtree.MarshalKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedKey, wantKey) {
		t.Error("stored key differs from the in-process key")
	}
}
