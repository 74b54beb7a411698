package main

import (
	"math"
	"slices"
	"time"
)

type number interface{ ~int64 | ~float64 }

// percentile returns the nearest-rank pct-th percentile (0 < pct <= 100)
// of xs, which it does not modify. It panics on an empty slice.
func percentile[T number](xs []T, pct float64) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median returns the middle value of xs, the mean of the two middle
// values when len(xs) is even.
func median[T number](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// which is what the acceptance rule for run-to-run spread is written in.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// windowCounts splits [0, span) into n equal windows and returns how many
// of the instants fall in each; instants outside the span are left out.
func windowCounts(at []time.Duration, span time.Duration, n int) []float64 {
	counts := make([]float64, n)
	for _, t := range at {
		if t >= 0 && t < span {
			counts[int(int64(t)*int64(n)/int64(span))]++
		}
	}
	return counts
}
