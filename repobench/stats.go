package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// samples, and false when fewer than minBeyond samples lie above it, so
// a run never reports a tail its sample cannot support.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the middle value (mean of the two middle values for even n).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest sample (0 for none).
func maxOf(samples []float64) float64 {
	m := 0.0
	for k, v := range samples {
		if k == 0 || v > m {
			m = v
		}
	}
	return m
}

// sum adds the samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}
