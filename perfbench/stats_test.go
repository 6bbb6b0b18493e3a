package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	tests := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2}, // nearest rank, not interpolated
		{[]float64{1, 2, 3, 4}, 75, 3},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{hundred, 1, 1},
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 99.5, 100},
	}
	for _, tt := range tests {
		if got := percentile(tt.xs, tt.p); got != tt.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tt.xs, tt.p, got, tt.want)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTailPercentile(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{1200, 99},
		{1000, 99}, // rank 990, exactly 10 beyond
		{999, 98},
		{500, 98},
		{100, 90},
		{20, 50},
		{19, 0},
		{0, 0},
	}
	for _, tt := range tests {
		if got := tailPercentile(tt.n); got != tt.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tt := range tests {
		if got := median(tt.xs); got != tt.want {
			t.Errorf("median(%v) = %v, want %v", tt.xs, got, tt.want)
		}
	}
}

func TestRowsPerSec(t *testing.T) {
	tests := []struct {
		rows    int
		seconds float64
		want    float64
		tol     float64
	}{
		{200_000, 2, 100_000, 0},
		{1000, 0.0145, 68965.517, 0.001},
		{1, 1e-9, 1e9, 1e-3},
		{5, 0, 0, 0},
		{5, -1, 0, 0},
	}
	for _, tt := range tests {
		got := rowsPerSec(tt.rows, tt.seconds)
		if math.Abs(got-tt.want) > tt.tol {
			t.Errorf("rowsPerSec(%d, %v) = %v, want %v", tt.rows, tt.seconds, got, tt.want)
		}
	}
}

func TestMBConversions(t *testing.T) {
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{"mib(0)", mib(0), 0},
		{"mib(1<<20)", mib(1 << 20), 1},
		{"mib(3.5 MB)", mib(3_670_016), 3.5},
		{"kibToMiB(256000)", kibToMiB(256_000), 250},
		{"kibToMiB(512)", kibToMiB(512), 0.5},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s = %v, want %v", tt.name, tt.got, tt.want)
		}
	}
}

func TestParseRows(t *testing.T) {
	tests := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"2000", 2000, false},
		{"200k", 200_000, false},
		{"2M", 2_000_000, false},
		{" 10M ", 10_000_000, false},
		{"1k", 1000, false},
		{"", 0, true},
		{"k", 0, true},
		{"0", 0, true},
		{"-5k", 0, true},
		{"1.5k", 0, true},
		{"2m", 0, true},
		{"2G", 0, true},
		{"1 k", 0, true},
		{"9999999M", 0, true},
	}
	for _, tt := range tests {
		got, err := parseRows(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("parseRows(%q) = %d, %v; want %d, error %v", tt.in, got, err, tt.want, tt.wantErr)
		}
	}
}

func TestBatchRate(t *testing.T) {
	s := time.Second
	tests := []struct {
		name string
		ends []time.Duration
		wall time.Duration
		k    int
		want float64
	}{
		{"fewer than two batches: overall rate", []time.Duration{s / 4, s / 2, s}, 2 * s, 2, 1.5},
		{"steady", []time.Duration{s / 2, s, 3 * s / 2, 2 * s}, 2 * s, 2, 2},
		{"unsorted", []time.Duration{2 * s, s / 2, 3 * s / 2, s}, 2 * s, 2, 2},
		// A stall before the second batch (2 s for 2 events) does not
		// move the median of the other two (1 s each).
		{"stall", []time.Duration{s / 2, s, 3 * s, 3 * s, 7 * s / 2, 4 * s}, 4 * s, 2, 2},
		{"partial last batch ignored", []time.Duration{s / 2, s, 3 * s / 2, 2 * s, 10 * s}, 10 * s, 2, 2},
	}
	for _, tt := range tests {
		if got := batchRate(tt.ends, tt.wall, tt.k); got != tt.want {
			t.Errorf("%s: batchRate = %v, want %v", tt.name, got, tt.want)
		}
	}
}
