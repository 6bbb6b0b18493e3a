package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecords writes run records of workload w with the given
// rows_per_ref_s values, recorded at procs GOMAXPROCS.
func writeRecords(t *testing.T, procs int, rates ...float64) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rates {
		blob, err := json.Marshal(&record{
			Workload:   "roundtrip-mem",
			Provenance: map[string]any{"gomaxprocs": procs},
			Metrics:    metrics{"rows_per_ref_s": {r, "rows/ref-s"}, "setup_s": {1, "s"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(blob, '\n'))
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	bench := filepath.Join("..", "BENCHMARK.json")
	tests := []struct {
		name     string
		old, cur string
		want     int
		output   string
	}{
		{"same speed", writeRecords(t, 2, 100, 110, 90), writeRecords(t, 2, 101, 99), 0, "+0.00%"},
		{"slower beyond the bound", writeRecords(t, 2, 100, 100), writeRecords(t, 2, 70, 70), 1, "WORSE than bound"},
		{"different GOMAXPROCS", writeRecords(t, 1, 100), writeRecords(t, 2, 100), 1, "refusing"},
	}
	for _, tt := range tests {
		var out bytes.Buffer
		got := compareMain([]string{"-bench", bench, tt.old, tt.cur}, &out, &out)
		if got != tt.want || !strings.Contains(out.String(), tt.output) {
			t.Errorf("%s: exit %d, output\n%s\nwant exit %d mentioning %q", tt.name, got, out.String(), tt.want, tt.output)
		}
	}
}
