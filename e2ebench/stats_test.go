package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n, perMille int
		want        float64
		refused     bool
	}{
		{n: 1, perMille: 500, want: 1},
		{n: 4, perMille: 500, want: 2},
		{n: 1000, perMille: 500, want: 500},
		{n: 1000, perMille: 990, want: 990}, // exactly 10 samples beyond
		{n: 999, perMille: 990, refused: true},
		{n: 100, perMille: 990, refused: true},
		{n: 100, perMille: 900, want: 90},
		{n: 99, perMille: 900, refused: true},
		{n: 0, perMille: 500, refused: true},
	} {
		got, err := percentile(seq(tc.n), tc.perMille)
		if tc.refused {
			if err == nil {
				t.Errorf("n=%d p%d: got %g, want refusal", tc.n, tc.perMille, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("n=%d p%d = %g, %v; want %g", tc.n, tc.perMille, got, err, tc.want)
		}
	}
}

// A failed request counts as missing every limit: once more than 1% of
// requests fail, p99 is infinite however fast the rest were.
func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 10; i++ {
		xs[i] = failedLatency
	}
	if got, _ := percentile(xs, 990); math.IsInf(got, 1) {
		t.Errorf("10 failures in 1000: p99 = %g, want finite", got)
	}
	xs[10] = failedLatency
	if got, _ := percentile(xs, 990); !math.IsInf(got, 1) {
		t.Errorf("11 failures in 1000: p99 = %g, want +Inf", got)
	}
	if got, _ := percentile(xs, 500); math.IsInf(got, 1) {
		t.Errorf("11 failures in 1000: p50 = %g, want finite", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %g, want NaN", got)
	}
}
