package main

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// calNominal is how long calibrate takes on the 2-core reference host
// when it runs at its usual speed.
const calNominal = 35 * time.Millisecond

// calibrate times a fixed task of the benchmark's own, which no change
// to the program can speed up or slow down: format 64k floats as text,
// parse them back and sort them.
func calibrate() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1000
	}
	var buf []byte
	for _, x := range xs {
		buf = strconv.AppendFloat(buf, x, 'f', 4, 64)
		buf = append(buf, '\n')
	}
	ys := make([]float64, 0, len(xs))
	for _, f := range bytes.Split(buf[:len(buf)-1], []byte("\n")) {
		y, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			panic(err)
		}
		ys = append(ys, y)
	}
	sort.Float64s(ys)
	return time.Since(start)
}

// adjust adds to m the host's calibration time, the median of cal, and
// for each throughput the end-to-end metrics gate its host-speed
// adjusted twin: <name>_per_ref_s, the rows/s scaled by that median over
// calNominal. The shared host's speed drifts by up to ±20% over minutes,
// and every program step and calibrate slow down together; the ratio
// keeps a change to the program in full and cancels most of the drift.
func adjust(m metrics, cal []time.Duration) {
	var secs []float64
	for _, d := range cal {
		secs = append(secs, d.Seconds())
	}
	c := median(secs)
	m.put("host.calibration_ms", 1000*c, "ms")
	for _, name := range []string{"encode_rows", "decode_rows", "rows"} {
		m.put(name+"_per_ref_s", m[name+"_per_s"].Value*c/calNominal.Seconds(), "rows/ref-s")
	}
}
