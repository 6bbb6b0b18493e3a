package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"privtree"
	"privtree/internal/dataset"
	"privtree/internal/synth"
)

// shardCount is how many binary shards roundtrip-shard splits its rows
// into.
const shardCount = 8

// stepRun is one batch step's process as the benchmark saw it.
type stepRun struct {
	name   string
	ok     bool
	why    string // why the step counts as failed
	wall   time.Duration
	cpu    time.Duration
	rssKiB int64
	out    []byte // the step's standard output
	trace  *stepTrace
}

// runStep runs one batch step in its own process in dir, timing it
// from start to exit as a user of the CLI would.
func runStep(ctx context.Context, cfg *config, dir, name string, traced bool, args ...string) stepRun {
	full := append([]string{"step", name}, args...)
	tracePath := filepath.Join(dir, name+".trace.json")
	if traced {
		full = append(full, "-trace", tracePath)
	}
	cmd := exec.CommandContext(ctx, cfg.exe, full...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	sr := stepRun{name: name, wall: time.Since(start), out: stdout.Bytes(), ok: err == nil}
	if ps := cmd.ProcessState; ps != nil {
		sr.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			sr.rssKiB = ru.Maxrss
		}
	}
	if err != nil {
		sr.why = fmt.Sprintf("%s: %v: %s", name, err, strings.TrimSpace(stderr.String()))
		return sr
	}
	if traced {
		blob, err := os.ReadFile(tracePath)
		if err == nil {
			sr.trace = new(stepTrace)
			err = json.Unmarshal(blob, sr.trace)
		}
		if err != nil {
			sr.ok, sr.why = false, fmt.Sprintf("%s: reading its trace: %v", name, err)
		}
	}
	return sr
}

// firstLine is the first line of a step's standard output.
func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}

// roundtrip is the custodian's batch round trip over one generated
// relation, either one CSV file (roundtrip-mem) or binary shards
// (roundtrip-shard).
type roundtrip struct {
	cfg     *config
	dir     string
	sharded bool
	nAttrs  int

	// digests of the first iteration's artifacts: every later iteration
	// runs the same seed, so its bytes must match.
	digests map[string]string
	nodes   int
	depth   int
	sizes   map[string]int64
}

// setup generates the relation the way cmd/datagen does: one CSV, or
// binary shards streamed from the same generator (the same rows).
func (rt *roundtrip) setup() error {
	rng := rand.New(rand.NewSource(rt.cfg.seed))
	if !rt.sharded {
		d, err := synth.Covertype(rng, rt.cfg.rows)
		if err != nil {
			return err
		}
		rt.nAttrs = d.NumAttrs()
		return privtree.WriteCSVFile(d, filepath.Join(rt.dir, "orig.csv"))
	}
	st, err := synth.CovertypeStreamer()
	if err != nil {
		return err
	}
	rt.nAttrs = st.NumAttrs()
	sink, err := dataset.NewBinaryShardSink(filepath.Join(rt.dir, "orig"), (rt.cfg.rows+shardCount-1)/shardCount, st.Schema())
	if err != nil {
		return err
	}
	blk := &dataset.Block{Cols: make([][]float64, rt.nAttrs)}
	vals := make([]float64, rt.nAttrs)
	for done := 0; done < rt.cfg.rows; {
		n := min(4096, rt.cfg.rows-done)
		for a := range blk.Cols {
			blk.Cols[a] = blk.Cols[a][:0]
		}
		blk.Labels = blk.Labels[:0]
		for i := 0; i < n; i++ {
			label := st.Sample(rng, vals)
			for a, v := range vals {
				blk.Cols[a] = append(blk.Cols[a], v)
			}
			blk.Labels = append(blk.Labels, label)
		}
		if err := sink.Write(blk); err != nil {
			return err
		}
		done += n
	}
	return sink.Flush()
}

// steps lists the round trip's steps with the flags of the matching
// privtree subcommand.
func (rt *roundtrip) steps() [][]string {
	seed := fmt.Sprint(rt.cfg.seed)
	if rt.sharded {
		return [][]string{
			{"encode", "-manifest", "orig.manifest.json", "-out", "enc", "-key", "key.json", "-seed", seed},
			{"mine", "-manifest", "enc.manifest.json", "-out", "tree.json"},
			{"decode", "-tree", "tree.json", "-manifest", "orig.manifest.json", "-key", "key.json"},
			{"verify", "-manifest", "orig.manifest.json", "-key", "key.json"},
		}
	}
	return [][]string{
		{"encode", "-in", "orig.csv", "-out", "enc.csv", "-key", "key.json", "-seed", seed},
		{"mine", "-in", "enc.csv", "-out", "tree.json"},
		{"decode", "-tree", "tree.json", "-orig", "orig.csv", "-key", "key.json"},
	}
}

// artifacts are the files each step writes, removed before it runs so
// that a failed step cannot leave the next one a stale input.
func (rt *roundtrip) artifacts(step string) ([]string, error) {
	switch {
	case step == "encode" && rt.sharded:
		shards, err := filepath.Glob(filepath.Join(rt.dir, "enc-*.bin"))
		if err != nil {
			return nil, err
		}
		for i := range shards {
			shards[i] = filepath.Base(shards[i])
		}
		sort.Strings(shards)
		return append([]string{"key.json", "enc.manifest.json"}, shards...), nil
	case step == "encode":
		return []string{"key.json", "enc.csv"}, nil
	case step == "mine":
		return []string{"tree.json"}, nil
	}
	return nil, nil
}

// runOne runs one step and checks its output.
func (rt *roundtrip) runOne(ctx context.Context, s []string, traced bool) stepRun {
	old, _ := rt.artifacts(s[0])
	for _, f := range old {
		os.Remove(filepath.Join(rt.dir, f))
	}
	sr := runStep(ctx, rt.cfg, rt.dir, s[0], traced, s[1:]...)
	if sr.ok {
		if err := rt.check(&sr); err != nil {
			sr.ok, sr.why = false, fmt.Sprintf("%s: %v", sr.name, err)
		}
	}
	if sr.ok && s[0] == "encode" && rt.cfg.faults.truncateKey {
		if err := truncateHalf(filepath.Join(rt.dir, "key.json")); err != nil {
			sr.ok, sr.why = false, err.Error()
		}
	}
	return sr
}

// relationCount is how many relations a round-trip run generates from
// its seed. A relation's tree, and with it the work of mine and decode,
// depends on its rows (at 20k rows the depth ranges over about 39–46
// between seeds), so a run sums its step times over several relations
// to depend less on any one of them.
const relationCount = 4

// relations makes a run's relations, each with its own directory and
// its own seed derived from the run's.
func relations(cfg *config, sharded bool) ([]*roundtrip, error) {
	rels := make([]*roundtrip, relationCount)
	for i := range rels {
		c := *cfg
		c.seed = cfg.seed*relationCount + int64(i)
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("rel%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rels[i] = &roundtrip{cfg: &c, dir: dir, sharded: sharded, digests: map[string]string{}, sizes: map[string]int64{}}
	}
	return rels, nil
}

// phase runs each relation's round trip once in order, each step
// consuming the one before, and then re-runs single steps until d has
// passed: a step's inputs are in place and its outputs are the same
// bytes each time (check verifies that). The next run is the step of a
// relation with the fewest runs, the shortest first, among those that
// would end closer to the deadline than stopping; so short steps get as
// many samples as long ones or more, and each median rests on several
// runs. After each run the host's speed is calibrated. runs[r] holds
// relation r's runs by step.
func phase(ctx context.Context, rels []*roundtrip, d time.Duration, traced bool, out *outcome) (runs []map[string][]stepRun, cal []time.Duration) {
	start := time.Now()
	record := func(r int, s []string) {
		sr := rels[r].runOne(ctx, s, traced)
		runs[r][sr.name] = append(runs[r][sr.name], sr)
		out.count(sr.name, sr.ok, sr.why)
		cal = append(cal, calibrate())
	}
	for r, rt := range rels {
		runs = append(runs, map[string][]stepRun{})
		for _, s := range rt.steps() {
			record(r, s)
		}
	}
	for ctx.Err() == nil {
		el := time.Since(start)
		var next []string
		var nextRel, nextRuns int
		var nextWall time.Duration
		for r, rt := range rels {
			for _, s := range rt.steps() {
				n, wall := len(runs[r][s[0]]), runs[r][s[0]][0].wall
				if el+wall/2 >= d {
					continue
				}
				if next == nil || n < nextRuns || (n == nextRuns && wall < nextWall) {
					next, nextRel, nextRuns, nextWall = s, r, n, wall
				}
			}
		}
		if next == nil {
			break
		}
		record(nextRel, next)
	}
	return runs, cal
}

// truncateHalf cuts a file to half its length.
func truncateHalf(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()/2)
}

// check verifies a successful step's output: the row counts it
// reports, the decode verdict, the verify report, and that its
// artifacts are byte-identical to the first iteration's.
func (rt *roundtrip) check(sr *stepRun) error {
	line := firstLine(sr.out)
	rows := rt.cfg.rows
	switch sr.name {
	case "encode":
		want := fmt.Sprintf("encoded %d tuples × %d attributes → enc.csv (key: key.json)", rows, rt.nAttrs)
		if rt.sharded {
			want = fmt.Sprintf("encoded %d tuples × %d attributes from %d shard(s) → enc.manifest.json (key: key.json)", rows, rt.nAttrs, shardCount)
			m, err := dataset.ReadManifest(filepath.Join(rt.dir, "enc.manifest.json"))
			if err != nil {
				return err
			}
			if m.TotalRows() != rows {
				return fmt.Errorf("encoded manifest holds %d rows, want %d", m.TotalRows(), rows)
			}
		} else if n, err := countLines(filepath.Join(rt.dir, "enc.csv")); err != nil {
			return err
		} else if n != rows+1 {
			return fmt.Errorf("enc.csv has %d lines, want %d", n, rows+1)
		}
		if line != want {
			return fmt.Errorf("printed %q, want %q", line, want)
		}
	case "mine":
		var nodes, leaves, depth int
		var acc float64
		if _, err := fmt.Sscanf(line, "tree: %d nodes, %d leaves, depth %d, training accuracy %f%%", &nodes, &leaves, &depth, &acc); err != nil {
			return fmt.Errorf("printed %q: %v", line, err)
		}
		if rt.nodes != 0 && (nodes != rt.nodes || depth != rt.depth) {
			return fmt.Errorf("mined %d nodes at depth %d, first iteration %d at %d", nodes, depth, rt.nodes, rt.depth)
		}
		rt.nodes, rt.depth = nodes, depth
	case "decode":
		want := fmt.Sprintf("decoded tree (%d nodes, depth %d); identical to direct mining: true", rt.nodes, rt.depth)
		if line != want {
			return fmt.Errorf("printed %q, want %q", line, want)
		}
	case "verify":
		if !strings.HasPrefix(line, "PASS") {
			return fmt.Errorf("report %q", line)
		}
	}
	files, err := rt.artifacts(sr.name)
	if err != nil {
		return err
	}
	for _, f := range files {
		d, size, err := digest(filepath.Join(rt.dir, f))
		if err != nil {
			return err
		}
		if prev, seen := rt.digests[f]; seen && prev != d {
			return fmt.Errorf("%s differs from the first iteration's at the same seed", f)
		}
		rt.digests[f] = d
		rt.sizes[f] = size
	}
	return nil
}

// digest is a file's SHA-256 and size.
func digest(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n, nil
}

// countLines counts the newlines in a file.
func countLines(path string) (int, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(blob, []byte("\n")), nil
}

// runRoundtrip sets the workload's relations up setupReps times, then
// runs round trips for the measured time: untraced, or with -trace 1
// first untraced and then traced, half the time each.
func runRoundtrip(ctx context.Context, cfg *config, sharded bool) (*outcome, error) {
	rels, err := relations(cfg, sharded)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for _, rt := range rels {
			if err := rt.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		out.setup = append(out.setup, time.Since(start))
	}
	orig := "orig.csv"
	if sharded {
		orig = "orig.manifest.json"
	}
	for _, rt := range rels {
		fi, err := os.Stat(filepath.Join(rt.dir, orig))
		if err != nil {
			return nil, err
		}
		rt.sizes[orig] = fi.Size()
	}
	plainFor := cfg.seconds
	if cfg.trace {
		plainFor /= 2
	}
	plain, cal := phase(ctx, rels, plainFor, false, out)
	out.plain = roundtripMetrics(rels, false, plain, cal)
	if !cfg.trace {
		return out, nil
	}
	traced, cal := phase(ctx, rels, cfg.seconds/2, true, out)
	out.traced = roundtripMetrics(rels, true, traced, cal)
	pooled := map[string][]stepRun{}
	for _, byStep := range traced {
		for step, srs := range byStep {
			pooled[step] = append(pooled[step], srs...)
		}
	}
	var flagged int
	out.notes, flagged = accounting(rels[0].steps(), pooled)
	out.traced.put("accounting.flagged_steps", float64(flagged), "count")
	return out, nil
}

// roundtripMetrics reduces a phase's step runs to metrics. A step's
// time is the sum over the relations of its median wall over their
// successful runs, and its rows/s all the relations' rows over that
// time; the other figures are medians over every successful run of the
// step. A step's first run on a relation is its warm-up: it is checked
// and counted, but kept out of the figures when others ran. With traced
// set the per-layer metrics are included.
func roundtripMetrics(rels []*roundtrip, traced bool, runs []map[string][]stepRun, cal []time.Duration) metrics {
	m := metrics{}
	rows := len(rels) * rels[0].cfg.rows
	layers := map[string][]float64{}
	// A round trip takes the sum of the steps' times, if every step
	// succeeded at least once on every relation.
	var roundTrip float64
	complete := true
	for _, s := range rels[0].steps() {
		step := s[0]
		var stepWall float64
		var rss, cpu, alloc, gc, other []float64
		for r := range rels {
			var wall []float64
			for i, sr := range runs[r][step] {
				if !sr.ok || (i == 0 && len(runs[r][step]) > 1) {
					continue
				}
				wall = append(wall, sr.wall.Seconds())
				rss = append(rss, kibToMiB(sr.rssKiB))
				cpu = append(cpu, ratio(sr.cpu.Seconds(), sr.wall.Seconds()))
				if sr.trace != nil {
					self, o := selfTimes(sr)
					for name, d := range self {
						layers[name+"_s"] = append(layers[name+"_s"], d.Seconds())
					}
					other = append(other, o.Seconds())
					alloc = append(alloc, mib(int64(sr.trace.AllocBytes)))
					gc = append(gc, float64(sr.trace.GCCycles))
				}
			}
			complete = complete && len(wall) > 0
			stepWall += median(wall)
		}
		roundTrip += stepWall
		m.put(step+"_rows_per_s", rowsPerSec(rows, stepWall), "rows/s")
		m.put(step+"_rss_mb", median(rss), "MB")
		if traced {
			m.put(step+".other_s", median(other), "s")
			m.put(step+".cpu_util", median(cpu), "ratio")
			m.put(step+".runtime.alloc_mb", median(alloc), "MB")
			m.put(step+".runtime.gc_cycles", median(gc), "count")
		}
	}
	if !complete {
		roundTrip = 0
	}
	m.put("rows_per_s", rowsPerSec(rows, roundTrip), "rows/s")
	adjust(m, cal)
	if !traced {
		return m
	}
	for name, xs := range layers {
		m.put(name, median(xs), "s")
	}
	// Sizes are one relation's; the tree counts are the nodes of all
	// the relations' trees and the deepest of them.
	rt := rels[0]
	if !rt.sharded {
		// encode and decode parse the original, mine the encoded CSV.
		m.put("dataset.csv_in_mb", mib(2*rt.sizes["orig.csv"]+rt.sizes["enc.csv"]), "MB")
		m.put("dataset.csv_out_mb", mib(rt.sizes["enc.csv"]), "MB")
	}
	m.put("transform.key_kb", float64(rt.sizes["key.json"])/(1<<10), "KB")
	m.put("tree.json_mb", mib(rt.sizes["tree.json"]), "MB")
	var nodes, depth int
	for _, rt := range rels {
		nodes += rt.nodes
		depth = max(depth, rt.depth)
	}
	m.put("tree.nodes", float64(nodes), "count")
	m.put("tree.depth", float64(depth), "count")
	return m
}

// selfTimes turns a step's spans into self times: a span's duration
// minus the spans nested in it. other is the step's wall time that no
// top-level span covers: process start and exit, flag parsing and the
// calls the benchmark does not wrap.
func selfTimes(sr stepRun) (self map[string]time.Duration, other time.Duration) {
	self = map[string]time.Duration{}
	other = sr.wall
	for _, sp := range sr.trace.Spans {
		self[sp.Name] += time.Duration(sp.Dur)
		if sp.Parent != "" {
			self[sp.Parent] -= time.Duration(sp.Dur)
		} else {
			other -= time.Duration(sp.Dur)
		}
	}
	return self, other
}

// accounting checks, for every traced step, that its layer times plus
// other_s sum to its wall time with nothing negative, and flags steps
// of at least half a second whose other_s exceeds 5% of the wall: the
// places where spans inside the program are missing.
func accounting(steps [][]string, runs map[string][]stepRun) (notes []string, flagged int) {
	var bad []string
	for _, s := range steps {
		var walls, timeds, others []float64
		for _, sr := range runs[s[0]] {
			if !sr.ok || sr.trace == nil {
				continue
			}
			self, other := selfTimes(sr)
			var timed time.Duration
			for name, d := range self {
				if d < 0 {
					bad = append(bad, fmt.Sprintf("%s: %s has negative self time %v", sr.name, name, d))
				}
				timed += d
			}
			if other < 0 {
				bad = append(bad, fmt.Sprintf("%s: timed calls exceed the wall time by %v", sr.name, -other))
			}
			if timed+other != sr.wall {
				bad = append(bad, fmt.Sprintf("%s: timed %v + other %v != wall %v", sr.name, timed, other, sr.wall))
			}
			walls = append(walls, sr.wall.Seconds())
			timeds = append(timeds, timed.Seconds())
			others = append(others, other.Seconds())
		}
		if len(walls) == 0 {
			continue
		}
		wall, other := median(walls), median(others)
		share := ratio(other, wall)
		mark := "ok"
		if wall >= 0.5 && share > 0.05 {
			mark = "FLAGGED: other_s above 5% of the wall"
			flagged++
		}
		notes = append(notes, fmt.Sprintf("accounting %-7s wall %.4f s = timed %.4f s + other %.4f s (%.1f%%) %s",
			s[0], wall, median(timeds), other, 100*share, mark))
	}
	notes = append(notes, bad...)
	notes = append(notes, fmt.Sprintf("accounting: %d step(s) flagged, %d identity violation(s)", flagged, len(bad)))
	return notes, flagged
}
