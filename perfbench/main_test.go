package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a test starts a step or the daemon as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smallConfig is a fast run of a workload: 2,000 rows, one second per
// phase, and 20 requests per daemon route.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		workload: workload, seed: 7, seconds: time.Second, trace: trace,
		rows: 2000, minPerRoute: 20, exe: exe, workDir: t.TempDir(),
	}
}

func loadDecl(t *testing.T) *decl {
	t.Helper()
	d, err := readDecl(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runSmall(t *testing.T, cfg *config) *outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWorkloadsReportDeclaredMetrics runs every workload traced and
// checks that each prints every declared metric in both modes, that
// every metric a workload measures is declared (so a misspelt name
// cannot silently print as 0), that every per-layer metric is measured
// by some workload, and that both round trips mine the same tree.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	d := loadDecl(t)
	declared := map[string]bool{}
	for _, e := range d.EndToEnd {
		declared[e.Name] = true
	}
	for _, p := range d.PerLayer {
		declared[p.Name] = true
	}
	measured := map[string]bool{}
	trees := map[string][2]float64{}
	for _, wl := range []string{"roundtrip-mem", "roundtrip-shard", "daemon-mix"} {
		out := runSmall(t, smallConfig(t, wl, true))
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", wl, out.failed, out.attempted, out.failures)
		}
		for _, trace := range []bool{false, true} {
			res, err := out.result(d, trace)
			if err != nil {
				t.Fatalf("%s trace %v: %v", wl, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace %v: result not correct", wl, trace)
			}
		}
		for _, e := range d.EndToEnd {
			if v := out.plain[e.Name]; v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl, e.Name, v.Value)
			}
		}
		for _, m := range []metrics{out.plain, out.traced} {
			for name := range m {
				if !declared[name] {
					t.Errorf("%s measures %s, which BENCHMARK.json does not declare", wl, name)
				}
				measured[name] = true
			}
		}
		if wl != "daemon-mix" {
			trees[wl] = [2]float64{out.traced["tree.nodes"].Value, out.traced["tree.depth"].Value}
		}
	}
	for _, p := range d.PerLayer {
		if !measured[p.Name] {
			t.Errorf("no workload measures per-layer metric %s", p.Name)
		}
	}
	if trees["roundtrip-mem"] != trees["roundtrip-shard"] || trees["roundtrip-mem"][0] == 0 {
		t.Errorf("trees (nodes, depth) differ: %v", trees)
	}
}
