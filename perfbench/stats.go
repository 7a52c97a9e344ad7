package main

import (
	"math"
	"sort"
)

// The statistics here are the benchmark's own; stats_test.go pins them.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread printed here is the spread the acceptance check
// computes. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median: the
// figure a metric's bound is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// minSamplesFor is the smallest sample count at which the p-th quantile
// (0 < p < 1) still has at least ten samples beyond it — the rule for the
// highest percentile a timing may be reported at.
func minSamplesFor(p float64) int {
	return int(math.Ceil(10/(1-p) - 1e-9))
}

// percentile is the nearest-rank p-quantile of xs (0 < p <= 1). Refused or
// failed requests enter xs as +Inf, so they count as above any limit; a
// percentile that lands on one is +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// withinBound reports whether a lower-is-better metric's new median is no
// worse than the old one by more than bound, as a share of the old median.
func withinBound(oldMedian, newMedian, bound float64) bool {
	return newMedian <= oldMedian*(1+bound)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
