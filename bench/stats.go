package main

import (
	"fmt"
	"math"
	"slices"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// when len(xs) is even), as Python's statistics.median defines it; 0 for
// no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minimum is the smallest value of xs; 0 for no values.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles, which the benchmark's
// acceptance spread is defined with: position p·(n+1), interpolated
// between neighbours and clamped to the first and last pair.
func quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	j = max(1, min(j, n-1))
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

// quartiles returns what statistics.quantiles(xs, n=4) returns.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPermille lists the percentiles a timing may report beyond its
// median, highest first, in per-mille so the selection is exact.
var tailPermille = []int{999, 990, 900, 500}

// tailPercentile picks the highest percentile with at least ten of n
// samples beyond it; ok is false when even the median lacks ten.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, pm := range tailPermille {
		atOrBelow := (pm*n + 999) / 1000 // ceil(pm/1000 · n)
		if n-atOrBelow >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// tailLabel renders the selected tail percentile of xs, e.g. "p90=12.3",
// or "" when there are too few samples for any.
func tailLabel(xs []float64) string {
	pct, ok := tailPercentile(len(xs))
	if !ok {
		return ""
	}
	return fmt.Sprintf("p%g=%.4g", pct, quantile(xs, pct/100))
}
