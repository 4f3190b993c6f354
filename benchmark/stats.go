package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimate resting on fewer is one slow request.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	// The epsilon keeps 10000 × 0.1% at 10, not 9.999….
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// percentileSupported reports whether n samples carry the p-th
// percentile, i.e. leave at least minBeyond samples beyond it.
func percentileSupported(n int, p float64) bool {
	return samplesBeyond(n, p) >= minBeyond
}

// highestSupportedPercentile returns the highest of the conventional
// percentiles that n samples support, or 0 when not even the median is
// supported (n < 20).
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if percentileSupported(n, p) {
			best = p
		}
	}
	return best
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, computed the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) does, so the numbers
// here match the acceptance rule this benchmark is judged by.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
