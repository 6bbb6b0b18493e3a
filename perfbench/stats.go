package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile, so that one outlier cannot be the percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified. An empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// sorted samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest whole percentile up to 99 that
// has at least minTail samples beyond it among n samples (1,200 give
// 99, 500 give 98), or 0 when even the median has fewer.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n-nearestRank(n, float64(p)) >= minTail {
			return p
		}
	}
	return 0
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rowsPerSec is rows divided by a wall time in seconds; 0 when nothing
// was timed.
func rowsPerSec(rows int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(rows) / seconds
}

// batchRate is the median rate of consecutive batches of k events:
// k divided by the time from the end of the batch before (or the
// start) to the batch's last completion. ends are completion times
// from the start. With fewer than 2k events it is the rate over wall.
func batchRate(ends []time.Duration, wall time.Duration, k int) float64 {
	if len(ends) < 2*k {
		return ratio(float64(len(ends)), wall.Seconds())
	}
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var rates []float64
	var prev time.Duration
	for i := k - 1; i < len(s); i += k {
		rates = append(rates, ratio(float64(k), (s[i]-prev).Seconds()))
		prev = s[i]
	}
	return median(rates)
}

// mib converts bytes to MB, where one MB is 2^20 bytes.
func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// kibToMiB converts a getrusage Maxrss figure (KiB on Linux) to MB.
func kibToMiB(kib int64) float64 { return float64(kib) / (1 << 10) }

// parseRows parses a row count such as "2000", "200k" or "2M"; the
// suffixes are decimal (k = 1,000, M = 1,000,000) because they count
// rows, not bytes.
func parseRows(s string) (int, error) {
	v := strings.TrimSpace(s)
	mult := 1
	switch {
	case strings.HasSuffix(v, "k"):
		mult, v = 1_000, strings.TrimSuffix(v, "k")
	case strings.HasSuffix(v, "M"):
		mult, v = 1_000_000, strings.TrimSuffix(v, "M")
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 || n > math.MaxInt32/mult {
		return 0, fmt.Errorf("row count %q: want a positive whole number with an optional k or M suffix", s)
	}
	return n * mult, nil
}
