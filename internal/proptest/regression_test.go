package proptest_test

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/proptest"
	"atcsched/internal/scenario"
)

// Minimized specs for bugs the property harness found, pinned so they
// cannot regress. Each came out of the shrinker; the battery must now
// pass them under every approach.

// TestRegressionHybridPollStarvation pins two bugs at once: hybrid's
// blanket promotion used to re-insert a slice-end-preempted VCPU at the
// queue head (starving its sibling), and a RecvPoll budget at or above
// the slice restarted from scratch on every dispatch (so pollers never
// blocked and dom0 never ran — total deadlock under HY).
func TestRegressionHybridPollStarvation(t *testing.T) {
	spec := proptest.Spec{Spec: scenario.Spec{
		Seed:  20,
		Nodes: 1, PCPUsPerNode: 1,
		Scheduler: scenario.SchedulerSpec{FixedSliceMs: 5},
		VirtualClusters: []scenario.VCSpec{
			{Kernel: "sp", Class: "A", VMs: 2, VCPUs: 1, Rounds: 1, Iterations: 1},
		},
		HorizonSec: 900,
	}}
	if err := proptest.CheckSpec(spec, cluster.ExtendedApproaches()); err != nil {
		t.Fatalf("pinned HY starvation spec failed again: %v", err)
	}
}

// TestRegressionBalanceStrandsPreempted pins the balance-placement
// stranding: BS may re-place a preempted VCPU on another PCPU's
// runqueue, and with stealing disabled nothing told that idle PCPU to
// look — a single compute-only VCPU on a 3-PCPU node never finished.
func TestRegressionBalanceStrandsPreempted(t *testing.T) {
	spec := proptest.Spec{Spec: scenario.Spec{
		Seed:  47,
		Nodes: 1, PCPUsPerNode: 3,
		Scheduler: scenario.SchedulerSpec{FixedSliceMs: 5, DisableBoost: true, DisableSteal: true},
		VirtualClusters: []scenario.VCSpec{
			{Kernel: "ep", Class: "A", VMs: 1, VCPUs: 1, Rounds: 1, Iterations: 2},
		},
		HorizonSec: 900,
	}}
	if err := proptest.CheckSpec(spec, cluster.ExtendedApproaches()); err != nil {
		t.Fatalf("pinned BS stranding spec failed again: %v", err)
	}
}
