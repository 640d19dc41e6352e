package proptest_test

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/proptest"
	"atcsched/internal/scenario"
	"atcsched/internal/sched/registry"
)

// swapBase is a tiny but contended world: two nodes and two VMs spanning
// them; the swap test adds a switch early enough to land while measured
// work is in flight.
func swapBase() proptest.Spec {
	return proptest.Spec{Spec: scenario.Spec{
		Seed:         7,
		Nodes:        2,
		PCPUsPerNode: 2,
		VirtualClusters: []scenario.VCSpec{
			{Kernel: "lu", Class: "A", VMs: 2, VCPUs: 4, Rounds: 2, Iterations: 10},
		},
		HorizonSec: 900,
	}}
}

// TestSwapPreservesInvariants is the live-switch property: for every
// registered policy as the swap target, a world flipped mid-run must
// still pass the full battery — liveness, conservation, audits, clock
// monotonicity, differential agreement and deterministic replay.
func TestSwapPreservesInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("battery run")
	}
	approaches := []cluster.Approach{cluster.CR, cluster.ATC}
	for _, kind := range registry.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			spec := swapBase()
			spec.Switches = []scenario.SwitchSpec{{AtSec: 0.05, Kind: kind}}
			if err := proptest.CheckSpec(spec, approaches); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHeteroPreservesInvariants pins the per-node-policy path: node 1
// stays pinned to ATC while the approach under test varies.
func TestHeteroPreservesInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("battery run")
	}
	spec := swapBase()
	spec.NodePolicies = []scenario.NodePolicySpec{{Nodes: []int{1}, Kind: "ATC"}}
	if err := proptest.CheckSpec(spec, []cluster.Approach{cluster.CR, cluster.CS}); err != nil {
		t.Fatal(err)
	}
}
