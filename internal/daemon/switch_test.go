package daemon

import (
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/workload"
)

// TestPolicySwitchFlipsNodeToATC runs the closed loop with a scheduled
// CR→ATC handover on node 0: the fleet keeps driving node 1 via EXT
// while node 0's in-VMM ATC takes over its own slices.
func TestPolicySwitchFlipsNodeToATC(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 60,
		Seed:       3,
		Switches:   []PolicySwitch{{AtPeriod: 10, Node: 0, Kind: "ATC"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: DefaultOptions()})
	if err := d.Run(); !IsDone(err) {
		t.Fatalf("daemon ended with %v", err)
	}
	if got := b.World.Node(0).Scheduler().Name(); got != "ATC" {
		t.Errorf("node 0 scheduler = %s, want ATC", got)
	}
	if got := b.World.Node(1).Scheduler().Name(); got != "EXT" {
		t.Errorf("node 1 scheduler = %s, want EXT", got)
	}
	if b.World.Node(0).Swaps() != 1 {
		t.Errorf("node 0 swaps = %d, want 1", b.World.Node(0).Swaps())
	}
	// The run must stay healthy across the handover.
	b.World.MustAudit()
	var rounds int
	for _, r := range b.Runs() {
		rounds += r.Rounds()
	}
	if rounds == 0 {
		t.Error("no rounds completed across the switch")
	}
}

// TestAllNodesSwitch uses Node: -1 to flip the whole cluster; ApplyNode
// then becomes a no-op everywhere without erroring.
func TestAllNodesSwitch(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 30,
		Seed:       3,
		Switches:   []PolicySwitch{{AtPeriod: 5, Node: -1, Kind: "CR"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: DefaultOptions()})
	if err := d.Run(); !IsDone(err) {
		t.Fatalf("daemon ended with %v", err)
	}
	for _, n := range b.World.Nodes() {
		if got := n.Scheduler().Name(); got != "CR" {
			t.Errorf("node %d scheduler = %s, want CR", n.ID(), got)
		}
	}
}

func TestSwitchConfigValidation(t *testing.T) {
	cases := map[string]PolicySwitch{
		"bad period":   {AtPeriod: 0, Node: 0, Kind: "ATC"},
		"bad node":     {AtPeriod: 1, Node: 9, Kind: "ATC"},
		"unknown kind": {AtPeriod: 1, Node: 0, Kind: "NOPE"},
		// The default budget is 400 periods: a later switch would never run.
		"past the budget": {AtPeriod: 401, Node: 0, Kind: "ATC"},
	}
	for name, sw := range cases {
		_, err := NewSimBackend(SimBackendConfig{Class: workload.ClassA, Switches: []PolicySwitch{sw}})
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := NewSimBackend(SimBackendConfig{Class: workload.ClassA,
		Switches: []PolicySwitch{{AtPeriod: 1, Node: 0, Kind: "NOPE"}}})
	if err == nil || !strings.Contains(err.Error(), "CR") {
		t.Errorf("unknown-kind error %v does not enumerate valid kinds", err)
	}
}
