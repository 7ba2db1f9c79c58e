package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
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

// tailPercentiles are the percentiles a latency tail may be reported
// at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything.
const minBeyond = 10

// nearestRank returns the nearest-rank percentile p of sorted xs and
// how many samples lie strictly above that rank.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps an exact rank such as 99.9% of 20000 from
	// rounding up past itself.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// nearestRankOf is nearestRank on unsorted input.
func nearestRankOf(xs []float64, p float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, p)
}

// tail reports the highest percentile in tailPercentiles that has at
// least minBeyond samples above it, with its value and the sample
// count. With too few samples for even the median to qualify, it
// reports the median and ok=false.
func tail(xs []float64) (p, v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if v, beyond := nearestRank(s, p); beyond >= minBeyond {
			return p, v, n, true
		}
	}
	v, _ = nearestRank(s, 50)
	return 50, v, n, false
}
