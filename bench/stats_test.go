package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPython pins summarize to Python's
// statistics.quantiles(xs, n=4), the rule an external check applies to
// the same samples.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2.5, 1, 7, 3, 9, 4}, 2.125, 3.5, 7.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{1.5, 1.1, 1.3, 1.2, 1.9, 1.4, 1.0, 1.6, 1.8}, 1.15, 1.4, 1.7},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.m) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.m, c.q3)
		}
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 || s.N != 1 {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("no samples: %+v", s)
	}
}

// TestTailPick checks that the reported tail percentile always has at
// least ten samples beyond it.
func TestTailPick(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the pick must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{99, 0, 0, false},
		{100, 0.9, 90, true},
		{199, 0.9, 180, true},
		{200, 0.95, 190, true},
		{500, 0.98, 490, true},
		{999, 0.98, 980, true},
		{1000, 0.99, 990, true},
		{2000, 0.995, 1990, true},
		{10000, 0.999, 9990, true},
	} {
		p, v, ok := tailPick(ramp(c.n))
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("tailPick(n=%d) = %g, %g, %v; want %g, %g, %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok && c.n-int(v) < 10 {
			t.Errorf("n=%d: only %d samples beyond %g", c.n, c.n-int(v), v)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
