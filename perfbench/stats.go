package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks. xs is not modified. It
// returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is the sample-count rule for tail percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it.
const minBeyond = 10

// tailPercentile returns the permille/1000 quantile of xs and whether
// the sample-count rule allows reporting it: the samples ranked above
// the percentile, n - ceil(n*permille/1000), must number at least
// minBeyond. So p99 (permille 990) needs 1000 samples. The rank is
// computed in integers so 0.99*1000 cannot round to 989.
func tailPercentile(xs []float64, permille int) (float64, bool) {
	n := len(xs)
	beyond := n - (n*permille+999)/1000
	if beyond < minBeyond {
		return 0, false
	}
	return quantile(xs, float64(permille)/1000), true
}

// samplesNeeded is the smallest sample count for which tailPercentile
// reports the permille percentile.
func samplesNeeded(permille int) int {
	n := 1
	for n-(n*permille+999)/1000 < minBeyond {
		n++
	}
	return n
}
