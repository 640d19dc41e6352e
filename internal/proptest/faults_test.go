package proptest_test

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
	"atcsched/internal/proptest"
	"atcsched/internal/scenario"
	"atcsched/internal/sim"
)

// faultSpec is the directed battery scenario: two small clusters and a
// latency-sensitive web server on overcommitted nodes (8 guest VCPUs on
// 3 PCPUs per node), plus a fault schedule exercising every generated
// kind — straggler, freeze, loss, bandwidth, and all three monitor
// faults — overlapping the measured work. The overcommit makes lu's
// spinlock waits long enough for co-scheduling to gang its VCPUs, and
// the web server is what vSlicer microslices.
func faultSpec() proptest.Spec {
	return proptest.Spec{Spec: scenario.Spec{
		Seed:         42,
		Nodes:        2,
		PCPUsPerNode: 3,
		VirtualClusters: []scenario.VCSpec{
			{Kernel: "lu", Class: "A", VMs: 2, VCPUs: 4, Rounds: 2, Iterations: 4},
			{Kernel: "ep", Class: "A", VMs: 2, VCPUs: 2, Rounds: 2, Iterations: 3},
		},
		Jobs:       []scenario.JobSpec{{Type: "web", Node: 0}},
		HorizonSec: 900,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.PCPUSlow, StartSec: 0.01, DurSec: 0.3, Nodes: []int{0}, Severity: 4},
			{Kind: fault.PCPUFreeze, StartSec: 0.05, DurSec: 0.1, Nodes: []int{1}},
			{Kind: fault.PacketLoss, StartSec: 0.02, DurSec: 0.4, Severity: 0.2},
			{Kind: fault.Bandwidth, StartSec: 0.1, DurSec: 0.3, Severity: 0.4},
			{Kind: fault.MonitorDrop, StartSec: 0.01, DurSec: 0.2, Severity: 0.5},
			{Kind: fault.MonitorNoise, StartSec: 0.1, DurSec: 0.2, Severity: 0.3},
			{Kind: fault.MonitorStale, StartSec: 0.1, DurSec: 0.1, Severity: 0.5},
		}},
	}}
}

// TestFaultBattery runs the full property battery — liveness,
// conservation, audits, determinism replay, differential agreement — on
// a scenario with every injectable fault kind live. Loss is modeled as
// delayed retransmission and monitor faults only perturb observations,
// so every property must still hold.
func TestFaultBattery(t *testing.T) {
	runBattery(t, faultSpec())
}

// TestFaultSpecInjectsMonitorFaults pins that the directed scenario's
// windows fall inside its measured run: under the approaches that read
// the spin monitor, every counted kind injects, so the battery reaches
// the dropped-, stale- and noisy-sample paths (the world ends near
// 0.2 s, so a window opening later would count zero).
func TestFaultSpecInjectsMonitorFaults(t *testing.T) {
	for _, a := range []cluster.Approach{cluster.ATC, cluster.ATCDFRS} {
		spec := faultSpec()
		spec.Scheduler.Kind = string(a)
		built, err := scenario.Build(&spec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !built.Scenario.Go(sim.FromSeconds(spec.HorizonSec)) {
			t.Fatalf("%s: measured runs incomplete", a)
		}
		r := built.Scenario.FaultReport()
		if r.PacketsLost == 0 || r.SamplesDropped == 0 || r.SamplesStaled == 0 || r.SamplesNoised == 0 {
			t.Errorf("%s: a configured kind never injected: %s", a, r)
		}
	}
}

// TestFaultSpecSeparatesApproaches pins that the directed scenario tells
// the baseline apart from the approaches it is there to exercise under
// faults: co-scheduling's gang dispatch and vSlicer's microslices must
// each change the run, so CS's and VS's fingerprints differ from CR's.
func TestFaultSpecSeparatesApproaches(t *testing.T) {
	fp := map[cluster.Approach]string{}
	for _, a := range []cluster.Approach{cluster.CR, cluster.CS, cluster.VS} {
		spec := faultSpec()
		spec.Scheduler.Kind = string(a)
		built, err := scenario.Build(&spec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !built.Scenario.Go(sim.FromSeconds(spec.HorizonSec)) {
			t.Fatalf("%s: measured runs incomplete", a)
		}
		fp[a] = built.Scenario.Fingerprint()
	}
	for _, a := range []cluster.Approach{cluster.CS, cluster.VS} {
		if fp[a] == fp[cluster.CR] {
			t.Errorf("%s fingerprints identically to CR (%d bytes): the scenario never reaches what %s changes", a, len(fp[a]), a)
		}
	}
}

// TestFaultSpecValidates pins that the directed scenario is inside the
// generator's hard bounds (so a bound tightening can't silently skip it).
func TestFaultSpecValidates(t *testing.T) {
	if err := faultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsBadFaults extends the fuzz safety net to the fault
// block.
func TestValidateRejectsBadFaults(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*proptest.Spec)
	}{
		{"unknown fault kind", func(s *proptest.Spec) {
			s.Faults = &fault.Spec{Windows: []fault.Window{{Kind: "meteor", DurSec: 1}}}
		}},
		{"fault past horizon", func(s *proptest.Spec) {
			s.Faults = &fault.Spec{Windows: []fault.Window{
				{Kind: fault.PacketLoss, StartSec: s.HorizonSec, DurSec: 1}}}
		}},
		{"fault node out of range", func(s *proptest.Spec) {
			s.Faults = &fault.Spec{Windows: []fault.Window{
				{Kind: fault.PCPUSlow, DurSec: 1, Nodes: []int{s.Nodes}}}}
		}},
		{"too many fault windows", func(s *proptest.Spec) {
			ws := make([]fault.Window, 9)
			for i := range ws {
				ws[i] = fault.Window{Kind: fault.PacketLoss, DurSec: 1}
			}
			s.Faults = &fault.Spec{Windows: ws}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := proptest.Generate(1, proptest.Bounded())
			tc.mut(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", spec)
			}
		})
	}
}
