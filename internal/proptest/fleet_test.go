package proptest

import (
	"errors"
	"strings"
	"testing"

	"atcsched/internal/scenario"
)

// TestFleetKillRestoreBattery sweeps the fleet kill-restore property
// directly across node counts and (seed-derived) shard counts: every
// mid-blackout kill must restore to a byte-identical post-convergence
// control state. This is the tier-1 entry point for the property; the
// generated sweep additionally hits it on ~15% of scenarios.
func TestFleetKillRestoreBattery(t *testing.T) {
	for _, nodes := range []int{1, 2, 5, 8} {
		for seed := uint64(1); seed <= 4; seed++ {
			spec := Spec{Spec: scenario.Spec{Seed: seed}, FleetNodes: nodes}
			if err := checkFleetKillRestore(spec); err != nil {
				t.Errorf("nodes=%d seed=%d: %v", nodes, seed, err)
			}
		}
	}
}

// TestFleetNodesValidated pins the FleetNodes bound and its presence in
// generated specs.
func TestFleetNodesValidated(t *testing.T) {
	spec := Generate(1, Bounded())
	spec.FleetNodes = maxFleetNodes + 1
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "fleetNodes") {
		t.Errorf("Validate(fleetNodes=%d) = %v, want fleetNodes bound error", spec.FleetNodes, err)
	}
	spec.FleetNodes = -1
	if err := spec.Validate(); err == nil {
		t.Error("Validate accepted negative fleetNodes")
	}
	// The generator must produce the dimension on some slice of seeds.
	found := 0
	for seed := uint64(1); seed <= 200; seed++ {
		if s := Generate(seed, Bounded()); s.FleetNodes > 0 {
			found++
			if s.FleetNodes > maxFleetNodes {
				t.Fatalf("seed %d: generated fleetNodes %d beyond bound", seed, s.FleetNodes)
			}
		}
	}
	if found < 10 {
		t.Errorf("fleetNodes generated on %d of 200 seeds, want a real slice (~15%%)", found)
	}
}

// TestShrinkClearsFleetNodes pins the shrinker direction: when the
// failure does not need the fleet property, FleetNodes shrinks away.
func TestShrinkClearsFleetNodes(t *testing.T) {
	spec := Generate(1, Bounded())
	spec.FleetNodes = 8
	min := Shrink(spec, func(s Spec) error {
		// Failure independent of the fleet dimension.
		return errors.New("always fails")
	})
	if min.FleetNodes != 0 {
		t.Errorf("shrunk FleetNodes = %d, want 0", min.FleetNodes)
	}
}
