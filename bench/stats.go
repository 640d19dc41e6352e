package main

import (
	"math"
	"sort"
)

// summary is the median and quartiles of one metric's samples.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the quartiles of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the numbers
// printed here match what an external checker computes from the same
// samples. One sample is its own median and quartiles; none is all zero.
func summarize(xs []float64) summary {
	n := len(xs)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: xs[0], Q1: xs[0], Q3: xs[0], N: 1}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: median(s), Q1: q(1), Q3: q(3), N: n}
}

// median returns the middle of xs (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles is the ladder tailPick chooses from.
var tailPercentiles = []float64{0.999, 0.995, 0.99, 0.98, 0.95, 0.9}

// tailPick returns the highest percentile of the ladder that leaves at
// least ten samples beyond it, and its nearest-rank value. A tail with
// fewer than ten samples behind it is noise, so with under 100 samples no
// percentile qualifies and ok is false.
func tailPick(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, nearestRank(xs, p), true
		}
	}
	return 0, 0, false
}

// nearestRank returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least a share p of the samples at or below
// it.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	return s[max(rank, 1)-1]
}
