package main

import (
	"testing"
	"time"
)

func TestAdjust(t *testing.T) {
	ms := time.Millisecond
	tests := []struct {
		name string
		cal  []time.Duration
		want float64 // the scale applied to every raw throughput
	}{
		{"reference speed", []time.Duration{35 * ms}, 1},
		{"host at half speed", []time.Duration{70 * ms, 60 * ms, 80 * ms}, 2},
		{"median, not mean", []time.Duration{35 * ms, 35 * ms, 350 * ms}, 1},
	}
	for _, tt := range tests {
		m := metrics{}
		m.put("encode_rows_per_s", 1000, "rows/s")
		m.put("decode_rows_per_s", 500, "rows/s")
		m.put("rows_per_s", 300, "rows/s")
		adjust(m, tt.cal)
		for name, raw := range map[string]float64{"encode_rows": 1000, "decode_rows": 500, "rows": 300} {
			got := m[name+"_per_ref_s"]
			if d := got.Value - raw*tt.want; d > 1e-9 || d < -1e-9 || got.Unit != "rows/ref-s" {
				t.Errorf("%s: %s_per_ref_s = %v %s, want %v rows/ref-s", tt.name, name, got.Value, got.Unit, raw*tt.want)
			}
		}
	}
}
