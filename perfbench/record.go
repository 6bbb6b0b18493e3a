package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold on it.
const heldOutSeed = 9973

// provenance identifies what a run measured and on what: the seed,
// GOMAXPROCS, the CPU count, the Go version, and the program's source
// (the git commit when the checkout is a repository, and in every case
// a digest of its Go sources).
func provenance(root string, seed int64) map[string]any {
	commit := "none"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"seed":          seed,
		"heldout_seed":  heldOutSeed,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
	}
}

// sourceDigest hashes the program's go.mod and .go files, outside the
// benchmark's own directory, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		blob, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(blob))
		h.Write(blob)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// record is one run as appended to .bench_build/runs.jsonl.
type record struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Rows       int            `json:"rows"`
	Provenance map[string]any `json:"provenance"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Metrics    metrics        `json:"metrics"`
	Layers     metrics        `json:"layers,omitempty"`
}

func appendRecord(path string, cfg *config, prov map[string]any, out *outcome) error {
	blob, err := json.Marshal(&record{
		Workload: cfg.workload, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(), Rows: cfg.rows,
		Provenance: prov, Attempted: out.attempted, Failed: out.failed,
		Metrics: out.plain, Layers: out.traced,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%s\n", blob); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareMain compares two files of run records metric by metric: the
// median of each side per workload, the change, and whether it is
// worse than BENCHMARK.json's bound. It refuses records made at
// different GOMAXPROCS values, which measure the machine, not the
// code, and exits 1 when a bound is exceeded.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	d, err := readDecl(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var sides [2][]record
	procs := map[float64]bool{}
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		for _, r := range sides[i] {
			p, _ := r.Provenance["gomaxprocs"].(float64)
			procs[p] = true
		}
	}
	if len(procs) > 1 {
		fmt.Fprintf(stderr, "compare: refusing to compare runs recorded at different GOMAXPROCS values %v\n", keys(procs))
		return 1
	}
	worse := compare(stdout, d, sides[0], sides[1])
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

// compare prints the per-workload medians of every end-to-end metric
// of the untraced records and returns how many are worse than their
// bound.
func compare(w io.Writer, d *decl, old, cur []record) (worse int) {
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	o, c := byWorkload(old), byWorkload(cur)
	var names []string
	for name := range o {
		if len(c[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, e := range d.EndToEnd {
			om, cm := medianOf(o[wl], e.Name), medianOf(c[wl], e.Name)
			change := ratio(cm-om, om)
			mark := ""
			if (e.Better == "lower" && change > e.Bound) || (e.Better == "higher" && -change > e.Bound) {
				mark = "  WORSE than bound"
				worse++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f -> %14.4f %s %+7.2f%% (n=%d/%d)%s\n",
				wl, e.Name, om, cm, e.Unit, 100*change, len(o[wl]), len(c[wl]), mark)
		}
	}
	return worse
}

func medianOf(recs []record, name string) float64 {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return median(xs)
}

func keys(m map[float64]bool) []float64 {
	var ks []float64
	for k := range m {
		ks = append(ks, k)
	}
	sort.Float64s(ks)
	return ks
}
