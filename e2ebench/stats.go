package main

import (
	"fmt"
	"math"
	"sort"
)

// failedLatency is what a failed or refused request contributes to a
// latency distribution: it misses every limit.
var failedLatency = math.Inf(1)

// minBeyond is how many samples must lie above a reported tail percentile:
// fewer, and the percentile is one or two outliers, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank percentile of xs given in per mille
// (500 = median, 990 = p99). A tail percentile is refused unless at least
// minBeyond samples lie above it, so p99 needs 1,000 samples. Failed
// requests enter xs as +Inf: they miss every latency limit.
func percentile(xs []float64, perMille int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", float64(perMille)/10)
	}
	rank := (perMille*n + 999) / 1000 // ceil, 1-based
	if rank < 1 {
		rank = 1
	}
	if perMille > 500 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g refused: %d samples leave %d beyond it, need %d",
			float64(perMille)/10, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs, averaging the two middle values of an even
// count; it summarizes the few passes and set-ups of one run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}
