package core

import (
	"slices"
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
	lat, slice, obs := src.SnapshotInto(make([]sim.Time, 2*cfg.Window))
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

// TestHistorySnapshotInto pins that SnapshotInto copies the windows
// into the caller's buffer, capacity-limited so an append to one window
// cannot write into the other or past it.
func TestHistorySnapshotInto(t *testing.T) {
	cfg := DefaultConfig()
	h := cfg.NewHistory()
	h.Observe(2*sim.Millisecond, cfg.Default)
	wantLat := []sim.Time{0, 0, 2 * sim.Millisecond}
	wantSlice, wantObs := []sim.Time{cfg.Default, cfg.Default, cfg.Default}, 1
	buf := make([]sim.Time, 2*cfg.Window+1)
	buf[len(buf)-1] = 42
	lat, slice, obs := h.SnapshotInto(buf)
	if !slices.Equal(lat, wantLat) || !slices.Equal(slice, wantSlice) || obs != wantObs {
		t.Fatalf("SnapshotInto = %v %v %d, want %v %v %d", lat, slice, obs, wantLat, wantSlice, wantObs)
	}
	if cap(lat) != cfg.Window || cap(slice) != cfg.Window || &slice[0] != &buf[cfg.Window] {
		t.Fatalf("windows not carved from buf at capacity %d: cap %d, %d", cfg.Window, cap(lat), cap(slice))
	}
	_ = append(lat, -1)
	_ = append(slice, -1)
	if buf[cfg.Window] != wantSlice[0] || buf[len(buf)-1] != 42 {
		t.Error("an append to a window wrote into its neighbour")
	}
}
