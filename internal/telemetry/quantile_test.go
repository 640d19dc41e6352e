package telemetry

import (
	"testing"

	"atcsched/internal/sim"
)

// TestHistogramQuantile pins the bucket-interpolation estimator against
// hand-computed values.
func TestHistogramQuantile(t *testing.T) {
	msT := func(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }
	h := Histogram{
		Bounds: []sim.Time{msT(1), msT(10), msT(100)},
		// 4 obs <= 1ms, 4 in (1,10], 2 in (10,100]
		Counts: []uint64{4, 8, 10},
		Count:  10,
	}
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0.2, msT(0.5)},     // 2/4 into [0,1ms]
		{0.4, msT(1)},       // exactly the first bound
		{0.6, msT(5.5)},     // 2/4 into (1,10ms]
		{0.8, msT(10)},      // exactly the second bound
		{0.9, msT(55)},      // 1/2 into (10,100ms]
		{1.0, msT(100)},     // top of the ladder
		{-0.5, sim.Time(0)}, // clamped to 0 → bottom
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileEdges pins the degenerate shapes: empty
// histogram, all mass beyond the last bound, empty winning bucket.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	overflow := Histogram{
		Bounds: []sim.Time{sim.Millisecond},
		Counts: []uint64{0},
		Count:  5, // all five in the +Inf bucket
	}
	if got := overflow.Quantile(0.5); got != sim.Millisecond {
		t.Errorf("overflow Quantile = %v, want clamp to last bound %v", got, sim.Millisecond)
	}
}

// TestHistogramQuantileLive drives the estimator through the Registry
// path the fleet uses for decision latency.
func TestHistogramQuantileLive(t *testing.T) {
	p := New(Options{})
	for i := 1; i <= 100; i++ {
		p.Global().Observe("lat", GlobalLabel(), sim.Time(i)*sim.Microsecond)
	}
	snap := p.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	p99 := snap.Histograms[0].Quantile(0.99)
	// 99 of 100 obs are <= 100µs; the estimate must land inside the
	// (10µs, 100µs] bucket, near its top.
	if p99 <= 10*sim.Microsecond || p99 > 100*sim.Microsecond {
		t.Errorf("p99 = %v, want within (10µs, 100µs]", p99)
	}
}
