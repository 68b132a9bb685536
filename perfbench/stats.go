package main

import (
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile for
// it to mean anything; with fewer, a single slow sample decides the number.
const minTail = 10

// quantile is one reported timing percentile together with the evidence
// behind it: which percentile was actually taken and from how many samples.
type quantile struct {
	Pct   int     `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tail returns the highest percentile no higher than want that leaves at
// least minTail samples beyond it (nearest-rank). When even the median
// leaves fewer than minTail beyond it, tail reports the median and says so
// with Pct 50; N always carries the sample count.
func tail(samples []float64, want int) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	p := want
	if limit := 100 * (n - minTail) / n; limit < p {
		p = limit
	}
	if p <= 50 {
		return quantile{Pct: 50, Value: median(samples), N: n}
	}
	s := slices.Sorted(slices.Values(samples))
	idx := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	return quantile{Pct: p, Value: s[max(idx, 0)], N: n}
}

// median is the middle sample (mean of the middle two for an even count);
// 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in the unit given.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	return median(scaled(ds, unit))
}

// scaled converts durations to float64 multiples of unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
