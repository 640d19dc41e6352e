package core

import (
	"testing"

	"atcsched/internal/sim"
)

// TestHistorySnapshotRestoreRoundTrip pins that a window rebuilt from
// its snapshot computes the same slices as the original, now and after
// further observation.
func TestHistorySnapshotRestoreRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	src := cfg.NewHistory()
	for _, l := range []sim.Time{2 * sim.Millisecond, 3 * sim.Millisecond, 4 * sim.Millisecond, 5 * sim.Millisecond} {
		src.Observe(l, cfg.ComputeSlice(&src))
	}
	lat, slice, obs := src.Snapshot()
	if obs != 4 {
		t.Fatalf("observed = %d, want 4", obs)
	}
	dst, err := cfg.RestoreHistory(lat, slice, obs)
	if err != nil {
		t.Fatal(err)
	}
	lat[0], slice[0] = -1, -1 // the restored window must not alias its input
	if got, want := cfg.ComputeSlice(&dst), cfg.ComputeSlice(&src); got != want {
		t.Errorf("restored ComputeSlice = %v, want %v", got, want)
	}
	src.Observe(sim.Millisecond, cfg.ComputeSlice(&src))
	dst.Observe(sim.Millisecond, cfg.ComputeSlice(&dst))
	if got, want := cfg.ComputeSlice(&dst), cfg.ComputeSlice(&src); got != want {
		t.Errorf("post-restore ComputeSlice = %v, want %v", got, want)
	}
}
