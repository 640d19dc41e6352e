// Package metrics provides the statistics the evaluation harness needs:
// streaming mean and extrema (Welford), Pearson correlation (used by the paper to show spinlock
// latency tracks performance, §II-B), and the Euclidean closeness metric
// of Equation (1) used to pick the minimum time-slice threshold (§III-B).
package metrics

import (
	"fmt"
	"math"
)

// Welford accumulates a stream of float64 samples and reports count,
// mean, and extrema in O(1) memory.
type Welford struct {
	n        int64
	mean     float64
	min, max float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of samples added.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample (0 with no samples).
func (w *Welford) Max() float64 { return w.max }

// Sum returns n*mean, the total of all samples.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Reset discards all samples.
func (w *Welford) Reset() { *w = Welford{} }

// Pearson returns the Pearson correlation coefficient of x and y. It
// returns an error when lengths differ, fewer than two points are given,
// or either series is constant.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 points, have %d", len(x))
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("metrics: constant series has undefined correlation")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Euclidean implements Equation (1) of the paper:
// D(O,P) = sqrt(sum_i (O_i - P_i)^2), where O_i is the ith application's
// optimal normalized execution time and P_i its normalized execution time
// under a candidate setting. Smaller is closer to per-app optimal.
func Euclidean(o, p []float64) (float64, error) {
	if len(o) != len(p) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(o), len(p))
	}
	var s float64
	for i := range o {
		d := o[i] - p[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// Jain returns Jain's fairness index (Σx)²/(n·Σx²) over xs: 1 when every
// value is equal, 1/n when one value holds everything. It returns 1 for
// an empty or all-zero slice (nothing is being shared unfairly).
func Jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMin returns the index of the smallest element; it panics on an empty
// slice. Ties resolve to the earliest index.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("metrics: ArgMin of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
