// Command perfbench is privtree's end-to-end benchmark. It runs one
// workload — the custodian's batch round trip over one CSV file
// (roundtrip-mem) or over binary shards (roundtrip-shard), or a
// closed-loop request mix against the daemon (daemon-mix) — checks
// every output, and prints the metrics BENCHMARK.json declares as the
// last line of standard output. With --trace 1 it also times each
// layer call from outside the program and prints the per-layer
// metrics instead. See README.md in this directory.
//
//	perfbench --workload roundtrip-mem --seed 1 --seconds 30 --trace 0
//	perfbench compare old.jsonl new.jsonl
//
// The batch steps and the daemon run as child processes of this same
// binary (selected by the PERFBENCH_CHILD environment variable).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// childEnv marks a process the benchmark started as one of its
// children: a batch step or the daemon.
const childEnv = "PERFBENCH_CHILD"

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 7

// runBudget bounds one run, children included.
const runBudget = 170 * time.Second

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain dispatches a child process.
func childMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "step":
			return stepMain(args[1:], os.Stdout, os.Stderr)
		case "serve":
			return serveMain(args[1:], os.Stdin, os.Stdout, os.Stderr)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench child: want step or serve")
	return 2
}

// faults inject failures for the failure-accounting tests.
type faults struct {
	truncateKey  bool // round trips: cut key.json in half after encode
	failKeyStore bool // daemon-mix: every key-store call fails
	tamperTree   bool // daemon-mix: decode carries a tree mined 2 levels deep
}

// config is one run's settings.
type config struct {
	workload    string
	seed        int64
	seconds     time.Duration
	trace       bool
	rows        int
	minPerRoute int
	exe         string // this binary, started again for each child
	workDir     string
	faults      faults
}

// metric is one measured number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what a workload run measured.
type outcome struct {
	setup     []time.Duration
	attempted int
	failed    int
	failures  []string
	ops       map[string][2]int // attempted and failed per operation
	plain     metrics           // the untraced phase
	traced    metrics           // the traced phase; nil without --trace 1
	notes     []string
}

// count records one operation (a step or a request route) and, if it
// failed, why.
func (o *outcome) count(op string, ok bool, why string) {
	if o.ops == nil {
		o.ops = map[string][2]int{}
	}
	c := o.ops[op]
	c[0]++
	o.attempted++
	if !ok {
		c[1]++
		o.failed++
		o.failures = append(o.failures, why)
	}
	o.ops[op] = c
}

// run runs cfg's workload.
func run(ctx context.Context, cfg *config) (*outcome, error) {
	var out *outcome
	var err error
	switch cfg.workload {
	case "roundtrip-mem":
		out, err = runRoundtrip(ctx, cfg, false)
	case "roundtrip-shard":
		out, err = runRoundtrip(ctx, cfg, true)
	case "daemon-mix":
		out, err = runDaemon(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (roundtrip-mem, roundtrip-shard, daemon-mix)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	var setup []float64
	for _, d := range out.setup {
		setup = append(setup, d.Seconds())
	}
	errRate := ratio(float64(out.failed), float64(out.attempted))
	for _, m := range []metrics{out.plain, out.traced} {
		if m != nil {
			m.put("setup_s", median(setup), "s")
			m.put("error_rate", errRate, "ratio")
		}
	}
	return out, nil
}

// decl is the part of BENCHMARK.json the benchmark reads: which
// metrics it must print, and the bounds compare applies.
type decl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDecl(path string) (*decl, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// result is the last line of a run's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// result selects the declared metrics: the end-to-end ones from the
// untraced phase, or with --trace 1 the per-layer ones from the traced
// phase. A per-layer metric of a layer the workload does not run is 0;
// a missing end-to-end metric is an error.
func (o *outcome) result(d *decl, trace bool) (*result, error) {
	r := &result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics{}}
	if !trace {
		for _, e := range d.EndToEnd {
			v, ok := o.plain[e.Name]
			if !ok {
				return nil, fmt.Errorf("workload did not measure end-to-end metric %s", e.Name)
			}
			r.Metrics[e.Name] = metric{v.Value, e.Unit}
		}
		return r, nil
	}
	for _, p := range d.PerLayer {
		r.Metrics[p.Name] = metric{o.traced[p.Name].Value, p.Unit}
	}
	return r, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "roundtrip-mem, roundtrip-shard or daemon-mix")
	seed := fs.Int64("seed", 1, "workload generator seed")
	seconds := fs.Int("seconds", 30, "seconds to measure")
	trace := fs.Int("trace", 0, "1: a traced run, printing the per-layer metrics")
	rows := fs.String("rows", "20k", "rows of the round-trip relation (2000, 20k, 2M, ...)")
	root := fs.String("root", ".", "checkout root: BENCHMARK.json is read there, work files go under its .bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	n, err := parseRows(*rows)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: bad flags:", err)
		return 2
	}
	if err := bench(*root, *workload, *seed, *seconds, *trace == 1, n, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(root, workload string, seed int64, seconds int, trace bool, rows int, stdout io.Writer) error {
	d, err := readDecl(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	build, err := filepath.Abs(filepath.Join(root, ".bench_build"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := &config{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace, rows: rows, minPerRoute: minPerRoute, exe: exe, workDir: work,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	out, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	res, err := out.result(d, trace)
	if err != nil {
		return err
	}
	prov := provenance(root, seed)
	report(stdout, cfg, prov, out)
	if err := appendRecord(filepath.Join(build, "runs.jsonl"), cfg, prov, out); err != nil {
		return err
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", blob)
	return err
}

// report prints the human-readable lines that precede the result:
// provenance, every metric measured, the traced run's accounting and
// its overhead against the untraced phase.
func report(w io.Writer, cfg *config, prov map[string]any, out *outcome) {
	fmt.Fprintf(w, "perfbench %s seed %d rows %d seconds %.0f trace %v\n",
		cfg.workload, cfg.seed, cfg.rows, cfg.seconds.Seconds(), cfg.trace)
	blob, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", blob)
	fmt.Fprintf(w, "operations %d attempted, %d failed\n", out.attempted, out.failed)
	for i, f := range out.failures {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more\n", len(out.failures)-i)
			break
		}
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	printMetrics(w, "untraced", out.plain)
	if out.traced == nil {
		return
	}
	printMetrics(w, "traced", out.traced)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range sortedNames(out.plain) {
		p, t := out.plain[name], out.traced[name]
		if name == "setup_s" || p.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "tracing overhead %-28s %+.2f%%\n", name, 100*(t.Value-p.Value)/p.Value)
	}
}

func printMetrics(w io.Writer, label string, m metrics) {
	for _, name := range sortedNames(m) {
		fmt.Fprintf(w, "%-9s %-38s %14.4f %s\n", label, name, m[name].Value, m[name].Unit)
	}
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
