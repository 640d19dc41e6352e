package core

import (
	"reflect"
	"slices"
	"testing"

	"atcsched/internal/sim"
)

// tracked lists c's tracked VM IDs, sorted.
func tracked(c *Controller) []int {
	ids := c.AppendTrackedVMs(nil)
	slices.Sort(ids)
	return ids
}

// TestExportImportRoundTrip pins that a controller rebuilt from
// exported state computes the same slices as the original.
func TestExportImportRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	src := NewController(cfg)
	lats := []sim.Time{2 * sim.Millisecond, 3 * sim.Millisecond, 4 * sim.Millisecond, 5 * sim.Millisecond}
	inForce := cfg.Default
	for _, l := range lats {
		src.Observe(7, l, inForce)
		src.Observe(9, 0, inForce)
		inForce = src.ComputeSlice(7)
	}

	if got := tracked(src); !reflect.DeepEqual(got, []int{7, 9}) {
		t.Fatalf("tracked VMs = %v, want [7 9]", got)
	}

	dst := NewController(cfg)
	for _, id := range tracked(src) {
		lat, slice, obs, ok := src.ExportVM(id)
		if !ok {
			t.Fatalf("ExportVM(%d) not found", id)
		}
		if err := dst.ImportVM(id, lat, slice, obs); err != nil {
			t.Fatalf("ImportVM(%d): %v", id, err)
		}
	}

	for _, id := range []int{7, 9} {
		if got, want := dst.ComputeSlice(id), src.ComputeSlice(id); got != want {
			t.Errorf("vm %d: restored ComputeSlice = %v, want %v", id, got, want)
		}
	}
	// Continued observation must also agree.
	src.Observe(7, sim.Millisecond, src.ComputeSlice(7))
	dst.Observe(7, sim.Millisecond, dst.ComputeSlice(7))
	if got, want := dst.ComputeSlice(7), src.ComputeSlice(7); got != want {
		t.Errorf("post-import ComputeSlice = %v, want %v", got, want)
	}
}

// TestExportVMDoesNotCreateState pins that probing an unknown VM leaves
// the controller untouched (History, by contrast, creates cold-start
// state).
func TestExportVMDoesNotCreateState(t *testing.T) {
	c := NewController(DefaultConfig())
	if _, _, _, ok := c.ExportVM(42); ok {
		t.Fatal("ExportVM of unknown VM reported ok")
	}
	if got := tracked(c); len(got) != 0 {
		t.Fatalf("ExportVM created state: tracked VMs = %v", got)
	}
}

// TestImportVMValidates pins rejection of malformed snapshot state.
func TestImportVMValidates(t *testing.T) {
	c := NewController(DefaultConfig())
	def := DefaultConfig().Default
	good := []sim.Time{def, def, def}
	cases := []struct {
		name     string
		lat      []sim.Time
		slice    []sim.Time
		observed int
	}{
		{"short lat", []sim.Time{0, 0}, good, 1},
		{"long slice", []sim.Time{0, 0, 0}, append(good, def), 1},
		{"negative latency", []sim.Time{0, -1, 0}, good, 1},
		{"zero slice", []sim.Time{0, 0, 0}, []sim.Time{def, 0, def}, 1},
		{"negative observed", []sim.Time{0, 0, 0}, good, -1},
	}
	for _, tc := range cases {
		if err := c.ImportVM(1, tc.lat, tc.slice, tc.observed); err == nil {
			t.Errorf("%s: ImportVM accepted bad state", tc.name)
		}
	}
	if got := tracked(c); len(got) != 0 {
		t.Fatalf("failed imports left state behind: %v", got)
	}
}
