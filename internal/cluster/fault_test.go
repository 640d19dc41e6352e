package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"atcsched/internal/fault"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

func faultedConfig(seed uint64) Config {
	cfg := DefaultConfig(2, ATC)
	cfg.Node.PCPUs = 2
	cfg.Node.Dom0VCPUs = 1
	cfg.Seed = seed
	cfg.Faults = &fault.Spec{Windows: []fault.Window{
		{Kind: fault.PCPUSlow, StartSec: 0.1, DurSec: 0.5, Nodes: []int{0}, Severity: 3},
		{Kind: fault.PacketLoss, StartSec: 0, DurSec: 1, Severity: 0.2},
		{Kind: fault.MonitorDrop, StartSec: 0, DurSec: 1, Severity: 0.3},
		{Kind: fault.MonitorNoise, StartSec: 0, DurSec: 1, Severity: 0.2},
	}}
	return cfg
}

// runFaulted drives one faulted scenario to completion and returns the
// plan description plus the injection report.
func runFaulted(t *testing.T, seed uint64) (string, string, uint64) {
	t.Helper()
	s := MustNew(faultedConfig(seed))
	vms := s.VirtualCluster("vc", 2, 2, nil)
	prof := workload.NPB("lu", workload.ClassA)
	prof.Iterations = 5
	run := s.RunParallel(prof, vms, 2, false)
	if !s.Go(120 * sim.Second) {
		t.Fatalf("faulted run did not complete (rounds=%d)", run.Rounds())
	}
	if errs := s.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit under faults: %v", errs[0])
	}
	rep := s.FaultReport()
	return s.FaultPlan().Describe(), rep.String(), rep.PacketsLost
}

// TestFaultPlanDeterministicAcrossRuns pins the plane's determinism
// contract end to end: two identical seeded cluster runs produce
// byte-identical fault schedules and injection reports.
func TestFaultPlanDeterministicAcrossRuns(t *testing.T) {
	d1, r1, lost := runFaulted(t, 11)
	d2, r2, _ := runFaulted(t, 11)
	if d1 != d2 {
		t.Errorf("plan descriptions diverged:\n%s\n%s", d1, d2)
	}
	if r1 != r2 {
		t.Errorf("injection reports diverged:\n%s\n%s", r1, r2)
	}
	if lost == 0 {
		t.Error("20% loss over the whole run injected nothing — hooks not live?")
	}
}

// TestFinalizeTelemetryFollowsWorldPlane checks that the end-of-run
// totals go to the plane the world publishes into, whether it came in
// through Config.Telemetry or World.SetTelemetry, and that both ways
// publish the same counters.
func TestFinalizeTelemetryFollowsWorldPlane(t *testing.T) {
	counters := func(viaConfig bool) map[string]uint64 {
		cfg := faultedConfig(3)
		plane := telemetry.New(telemetry.Options{})
		if viaConfig {
			cfg.Telemetry = plane
		}
		s := MustNew(cfg)
		if !viaConfig {
			s.World.SetTelemetry(plane)
		}
		prof := workload.NPB("lu", workload.ClassA)
		prof.Iterations = 2
		s.RunParallel(prof, s.VirtualCluster("vc", 2, 2, nil), 2, false)
		s.Go(120 * sim.Second)
		s.FinalizeTelemetry()
		out := map[string]uint64{}
		for _, c := range plane.Snapshot().Counters {
			out[fmt.Sprintf("%s/%d", c.Name, c.Node)] = c.Value
		}
		return out
	}
	viaConfig, attached := counters(true), counters(false)
	for _, name := range []string{"sched_dispatches/0", "shard_sync_windows/-1", "fault_packets_lost/-1"} {
		if _, ok := attached[name]; !ok {
			t.Errorf("a plane attached with SetTelemetry gets no %s total", name)
		}
	}
	if !reflect.DeepEqual(viaConfig, attached) {
		t.Errorf("end-of-run totals differ by how the plane was attached:\nconfig     %v\nSetTelemetry %v", viaConfig, attached)
	}
}

// TestFaultReportVariesWithSeed is the negative control: a different
// seed must give a different injection history (otherwise the "same
// seed, same report" test proves nothing).
func TestFaultReportVariesWithSeed(t *testing.T) {
	_, r1, _ := runFaulted(t, 11)
	_, r2, _ := runFaulted(t, 12)
	if r1 == r2 {
		t.Logf("reports coincide across seeds (possible but unlikely): %s", r1)
	}
}

// TestClusterRejectsBadFaultSpec pins the wiring: an invalid spec fails
// scenario construction instead of being silently ignored.
func TestClusterRejectsBadFaultSpec(t *testing.T) {
	cfg := DefaultConfig(2, CR)
	cfg.Faults = &fault.Spec{Windows: []fault.Window{{Kind: "meteor", DurSec: 1}}}
	if _, err := New(cfg); err == nil {
		t.Error("invalid fault spec accepted")
	}
	// Node scope past the cluster's size fails at Attach.
	cfg = DefaultConfig(2, CR)
	cfg.Faults = &fault.Spec{Windows: []fault.Window{
		{Kind: fault.PCPUSlow, DurSec: 1, Nodes: []int{5}}}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range fault node scope accepted")
	}
}

// TestNoFaultsNilPlan pins the no-op path: without a fault block the
// scenario has no plan and a zero report.
func TestNoFaultsNilPlan(t *testing.T) {
	s := MustNew(DefaultConfig(1, CR))
	if s.FaultPlan() != nil {
		t.Error("plan present without a fault spec")
	}
	if s.FaultReport() != (fault.Report{}) {
		t.Error("nonzero report without a fault spec")
	}
}
