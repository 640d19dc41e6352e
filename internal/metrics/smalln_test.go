package metrics

import (
	"math"
	"testing"
)

// TestP2ValueSmallSamples pins the exact small-n fallback: below five
// samples Value interpolates the order statistics directly, and the
// transition to the marker-based estimate at n=5 is consistent.
func TestP2ValueSmallSamples(t *testing.T) {
	q := NewP2Quantile(0.5)
	if q.Value() != 0 {
		t.Errorf("empty Value = %v, want 0", q.Value())
	}

	q.Add(7)
	if q.Value() != 7 { // n=1: the only sample, any p
		t.Errorf("n=1 Value = %v, want 7", q.Value())
	}
	if q.N() != 1 {
		t.Errorf("N = %d", q.N())
	}

	q.Add(3)
	if got := q.Value(); got != 5 { // n=2: median of {3,7}
		t.Errorf("n=2 median = %v, want 5", got)
	}

	q.Add(11)
	if got := q.Value(); got != 7 { // n=3: middle of {3,7,11}
		t.Errorf("n=3 median = %v, want 7", got)
	}

	q.Add(1)
	if got := q.Value(); got != 5 { // n=4: {1,3,7,11}, idx 1.5 -> (3+7)/2
		t.Errorf("n=4 median = %v, want 5", got)
	}

	q.Add(9)
	if got := q.Value(); got != 7 { // n=5: markers init from sorted {1,3,7,9,11}
		t.Errorf("n=5 median = %v, want center marker 7", got)
	}
}

// TestP2SmallSampleExtremeQuantiles pins the fallback's interpolation at
// the tails, where the index math hits its floor/ceil edges.
func TestP2SmallSampleExtremeQuantiles(t *testing.T) {
	lo := NewP2Quantile(0.05)
	hi := NewP2Quantile(0.99)
	for _, x := range []float64{10, 20, 30} {
		lo.Add(x)
		hi.Add(x)
	}
	// idx = 0.05*2 = 0.1 -> 10*(0.9) + 20*(0.1) = 11
	if got := lo.Value(); math.Abs(got-11) > 1e-9 {
		t.Errorf("p5 of {10,20,30} = %v, want 11", got)
	}
	// idx = 0.99*2 = 1.98 -> 20*0.02 + 30*0.98 = 29.8
	if got := hi.Value(); math.Abs(got-29.8) > 1e-9 {
		t.Errorf("p99 of {10,20,30} = %v, want 29.8", got)
	}
}

// TestP2SmallSampleOrderInsensitive pins that the fallback sorts: the
// arrival order of the first samples must not change the estimate.
func TestP2SmallSampleOrderInsensitive(t *testing.T) {
	a := NewP2Quantile(0.5)
	b := NewP2Quantile(0.5)
	for _, x := range []float64{1, 2, 3, 4} {
		a.Add(x)
	}
	for _, x := range []float64{4, 2, 1, 3} {
		b.Add(x)
	}
	if a.Value() != b.Value() {
		t.Errorf("order sensitivity: %v vs %v", a.Value(), b.Value())
	}
}

// TestWelfordZeroAndOneSample pins the degenerate paths: a fresh
// accumulator reports zeros everywhere, and one sample sets both
// extrema.
func TestWelfordZeroAndOneSample(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 || w.Sum() != 0 {
		t.Errorf("zero-sample accumulator not all-zero: %+v", w)
	}

	w.Add(-2.5)
	if w.N() != 1 || w.Mean() != -2.5 || w.Min() != -2.5 || w.Max() != -2.5 {
		t.Errorf("one negative sample: n=%d mean=%v min=%v max=%v",
			w.N(), w.Mean(), w.Min(), w.Max())
	}

	w.Reset()
	if w.N() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Errorf("Reset left state: %+v", w)
	}
}

// TestWelfordExtremaTrack pins min/max against samples that straddle the
// zero initial values.
func TestWelfordExtremaTrack(t *testing.T) {
	var w Welford
	for _, x := range []float64{5, -3, 12, 0.5} {
		w.Add(x)
	}
	if w.Min() != -3 || w.Max() != 12 {
		t.Errorf("min=%v max=%v, want -3/12", w.Min(), w.Max())
	}
	if got := w.Sum(); math.Abs(got-14.5) > 1e-9 {
		t.Errorf("Sum = %v, want 14.5", got)
	}
}
