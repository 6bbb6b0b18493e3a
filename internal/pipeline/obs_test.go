package pipeline

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/transform"
)

// TestRecorderDoesNotChangeEncodeBytes pins the observability contract:
// enabling a collecting Recorder must not move a single output bit,
// because instrumentation only reads clocks and bumps counters — it
// never touches a random stream or a reduction order. The check runs at
// workers=1 and workers=8 so the span/worker attribution inside the
// fan-out is covered too.
func TestRecorderDoesNotChangeEncodeBytes(t *testing.T) {
	defer obs.Disable()
	d := legacyWorkloads(t, 300)["covertype-full"]
	for _, strat := range []Strategy{StrategyNone, StrategyBP, StrategyMaxMP} {
		for _, workers := range []int{1, 8} {
			opts := Options{Strategy: strat, Breakpoints: 6, MinPieceWidth: 3, Workers: workers}

			obs.Disable()
			baseEnc, baseKey, err := Encode(d, opts, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatalf("%v workers=%d off: %v", strat, workers, err)
			}
			baseBlob, err := transform.MarshalKey(baseKey)
			if err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			obs.Enable(reg)
			enc, key, err := Encode(d, opts, rand.New(rand.NewSource(11)))
			obs.Disable()
			if err != nil {
				t.Fatalf("%v workers=%d on: %v", strat, workers, err)
			}
			blob, err := transform.MarshalKey(key)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(baseBlob, blob) {
				t.Fatalf("%v workers=%d: key differs with recorder enabled", strat, workers)
			}
			for a := range baseEnc.Cols {
				for i := range baseEnc.Cols[a] {
					if math.Float64bits(baseEnc.Cols[a][i]) != math.Float64bits(enc.Cols[a][i]) {
						t.Fatalf("%v workers=%d: attr %d tuple %d differs bitwise with recorder enabled",
							strat, workers, a, i)
					}
				}
			}

			// Guard against vacuity: the instrumented run must actually
			// have recorded the encode pipeline.
			snap := reg.Snapshot()
			if snap.Counters["pipeline.attrs"] == 0 {
				t.Fatalf("%v workers=%d: recorder saw no pipeline.attrs — instrumentation missing?", strat, workers)
			}
			var sawRoot bool
			for _, sp := range snap.Spans {
				if sp.Path == "encode" {
					sawRoot = true
				}
			}
			if !sawRoot {
				t.Fatalf("%v workers=%d: no encode root span in %+v", strat, workers, snap.Spans)
			}
		}
	}
}

// TestApplyStreamFormatWriteSpan checks a traced ApplyStream into a CSV
// sink records io/format_write under encode/apply_stream, with the rows
// and bytes it wrote.
func TestApplyStreamFormatWriteSpan(t *testing.T) {
	defer obs.Disable()
	d := legacyWorkloads(t, 3000)["covertype"]
	_, key, err := Encode(d, Options{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.Enable(reg)
	var out bytes.Buffer
	if err := ApplyStream(noCtx, key, dataset.NewDatasetSource(d), dataset.NewCSVSink(&out, d.Schema()), 0, 2); err != nil {
		t.Fatal(err)
	}
	obs.Disable()
	snap := reg.Snapshot()
	var saw bool
	for _, sp := range snap.Spans {
		saw = saw || sp.Path == "encode/apply_stream/io/format_write"
	}
	if !saw {
		t.Fatalf("no encode/apply_stream/io/format_write span in %+v", snap.Spans)
	}
	header := bytes.IndexByte(out.Bytes(), '\n') + 1
	if got := snap.Counters["io.format_write.rows"]; got != 3000 {
		t.Errorf("io.format_write.rows = %d, want 3000", got)
	}
	if got := snap.Counters["io.format_write.bytes"]; got != int64(out.Len()-header) {
		t.Errorf("io.format_write.bytes = %d, want %d", got, out.Len()-header)
	}
}
