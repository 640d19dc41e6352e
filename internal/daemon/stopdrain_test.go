package daemon

import (
	"testing"
	"time"

	"atcsched/internal/sim"
)

// stopRacingActuator fails its first Apply after asking the daemon to
// stop — the exact shape of a shutdown signal racing an actuation retry.
type stopRacingActuator struct {
	mapActuator
	d *Fleet
}

func (a *stopRacingActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	if a.Applies == 0 {
		a.Applies++
		a.d.Stop()
		return errActuator
	}
	return a.mapActuator.ApplyNode(node, slices)
}

// TestStopDrainsInFlightActuation pins the stop-path bugfix: a Stop
// arriving while a period is mid-retry must (a) cut the backoff wait
// short instead of sleeping it out, and (b) still run the remaining
// retry attempts so the final Apply lands. The 30 s backoff makes a
// regression unmissable — the old stop path would sleep the full
// backoff before draining.
func TestStopDrainsInFlightActuation(t *testing.T) {
	src := &SliceSource{Periods: [][]VMSample{
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
	}}
	act := &stopRacingActuator{}
	d := nodeFleet(src, act, func(o *Options) { o.MaxRetries, o.RetryBackoff = 1, 30*time.Second })
	act.d = d

	start := time.Now()
	err := d.Run()
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Run took %v; stop did not cut the 30s backoff short", elapsed)
	}
	if d.Periods() != 1 || d.Decisions() != 1 {
		t.Fatalf("Periods = %d, Decisions = %d, want 1 (the in-flight period must drain, the next must not start)",
			d.Periods(), d.Decisions())
	}
	if len(act.Last) == 0 {
		t.Fatal("final Apply was dropped on stop; no slices landed")
	}
	if got := d.Stats().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
	if got := d.Stats().DroppedPeriods; got != 0 {
		t.Errorf("DroppedPeriods = %d, want 0 — the stop path dropped the period", got)
	}
}
