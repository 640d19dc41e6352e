package core

import (
	"fmt"
	"math/rand"
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

// shiftHistory is the window as it was kept before the ring: both
// windows oldest first, every observation shifting them down one slot.
// TestHistoryRingMatchesShift checks the ring against it.
type shiftHistory struct {
	lat, slice []sim.Time
	observed   int
}

func newShiftHistory(c Config) *shiftHistory {
	h := &shiftHistory{lat: make([]sim.Time, c.Window), slice: make([]sim.Time, c.Window)}
	for i := range h.slice {
		h.slice[i] = c.Default
	}
	return h
}

func (h *shiftHistory) observe(lat, slice sim.Time) {
	copy(h.lat, h.lat[1:])
	h.lat[len(h.lat)-1] = lat
	copy(h.slice, h.slice[1:])
	h.slice[len(h.slice)-1] = slice
	h.observed++
}

// computeSlice is Algorithm 1 as it read over the shifted window.
func (h *shiftHistory) computeSlice(c Config) sim.Time {
	w := c.Window
	latPrev, latPrev2, latPrev3 := h.lat[w-1], h.lat[w-2], h.lat[0]
	if w >= 3 {
		latPrev3 = h.lat[w-3]
	}
	slicePrev, slicePrev2 := h.slice[w-1], h.slice[w-2]
	next := slicePrev
	rising := latPrev2 < latPrev
	fallingDueToShorterSlice := latPrev3 > latPrev2 && latPrev2 > latPrev && slicePrev2 > slicePrev
	if rising || fallingDueToShorterSlice {
		switch {
		case slicePrev > c.Alpha && slicePrev-c.Alpha >= c.MinThreshold:
			next = slicePrev - c.Alpha
		case slicePrev > c.Beta && slicePrev-c.Beta >= c.MinThreshold:
			next = slicePrev - c.Beta
		}
	}
	allZero := true
	for _, l := range h.lat {
		if l != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		switch {
		case slicePrev > c.Default-c.Alpha:
			next = c.Default
		case slicePrev+c.Alpha <= c.Default:
			next = slicePrev + c.Alpha
		default:
			next = slicePrev + c.Beta
		}
		if next > c.Default {
			next = c.Default
		}
	}
	if next < c.MinThreshold {
		next = c.MinThreshold
	}
	return next
}

// TestHistoryRingMatchesShift drives the ring-indexed History and the
// shifted reference through the same random sequences of Observe,
// SnapshotInto, RestoreHistory and ComputeSlice at windows 2-6, and
// requires the same slices and the same oldest-first snapshots at every
// step. Latencies repeat and often stay at zero, so that rising,
// falling-after-shorter, hold and relax all fire, and the slices fed
// back sometimes follow Algorithm 1 and sometimes jump, as an actuator
// or a restore may make them, past the default too.
func TestHistoryRingMatchesShift(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	lats := []sim.Time{0, 0, 0, 100 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond, 5 * sim.Millisecond}
	for seq := 0; seq < 400; seq++ {
		c := DefaultConfig()
		c.Window = 2 + seq%5
		c.MinThreshold = []sim.Time{300 * sim.Microsecond, sim.Millisecond}[rnd.Intn(2)]
		c.Beta = []sim.Time{300 * sim.Microsecond, 700 * sim.Microsecond}[rnd.Intn(2)]
		c.Alpha = []sim.Time{6 * sim.Millisecond, 11 * sim.Millisecond}[rnd.Intn(2)]
		ring, ref := c.NewHistory(), newShiftHistory(c)
		buf := make([]sim.Time, 2*c.Window)
		for step := 0; step < 60; step++ {
			where := func(what string) string {
				return fmt.Sprintf("window %d, sequence %d, step %d: %s", c.Window, seq, step, what)
			}
			switch op := rnd.Intn(10); {
			case op < 6:
				lat, slice := lats[rnd.Intn(len(lats))], ref.computeSlice(c)
				if rnd.Intn(4) == 0 {
					slice = sim.Time(1+rnd.Intn(40)) * sim.Millisecond
				}
				ring.Observe(lat, slice)
				ref.observe(lat, slice)
			case op < 8:
				lat, slice, obs := ring.SnapshotInto(buf)
				if !slices.Equal(lat, ref.lat) || !slices.Equal(slice, ref.slice) || obs != ref.observed {
					t.Fatal(where(fmt.Sprintf("snapshot %v %v %d, reference %v %v %d", lat, slice, obs, ref.lat, ref.slice, ref.observed)))
				}
			default:
				lat, slice, obs := ring.SnapshotInto(buf)
				var err error
				if ring, err = c.RestoreHistory(lat, slice, obs); err != nil {
					t.Fatal(where(err.Error()))
				}
			}
			if got, want := c.ComputeSlice(&ring), ref.computeSlice(c); got != want {
				t.Fatal(where(fmt.Sprintf("ComputeSlice %v, reference %v (window %v %v)", got, want, ref.lat, ref.slice)))
			}
		}
	}
}
