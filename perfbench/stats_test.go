package main

import (
	"testing"
	"time"
)

// seq returns the samples 1..n in scrambled order.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7)%n + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want, pct int
	}{
		{600, 95, 95}, // 30 beyond p95: the requested percentile stands
		{200, 95, 95}, // exactly 10 beyond
		{199, 95, 94},
		{100, 95, 90},
		{50, 95, 80},
		{25, 95, 60},
	} {
		q := tail(seq(tc.n), tc.want)
		if q.Pct != tc.pct || q.N != tc.n {
			t.Errorf("n=%d: got p%d over %d, want p%d over %d", tc.n, q.Pct, q.N, tc.pct, tc.n)
		}
		// Samples are 1..n, so the value says how many lie beyond it.
		if beyond := tc.n - int(q.Value); beyond < minTail {
			t.Errorf("n=%d: p%d=%v leaves %d samples beyond it, want >= %d", tc.n, q.Pct, q.Value, beyond, minTail)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	for _, n := range []int{1, 3, 11, 20} {
		q := tail(seq(n), 95)
		if q.Pct != 50 || q.Value != median(seq(n)) || q.N != n {
			t.Errorf("n=%d: got %+v, want the median labelled p50 over %d", n, q, n)
		}
	}
	if q := tail(nil, 95); q != (quantile{}) {
		t.Errorf("no samples: got %+v, want zero", q)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := medianDur([]time.Duration{time.Second, 3 * time.Second, 2 * time.Second}, time.Millisecond); got != 2000 {
		t.Errorf("medianDur = %v ms, want 2000", got)
	}
}
