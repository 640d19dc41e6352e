// Package integration_test drives whole-system scenarios across every
// module and checks global invariants (vmm.World.Audit) mid-run and at
// completion — conservation of CPU time and packets, mailbox/spinlock
// consistency — under each scheduling approach and several stress
// shapes.
package integration_test

import (
	"fmt"
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// auditEvery runs the scenario to the horizon, auditing every step ms of
// virtual time and at the end.
func auditEvery(t *testing.T, s *cluster.Scenario, horizon, step sim.Time) {
	t.Helper()
	s.World.Start()
	for now := step; now <= horizon; now += step {
		stopped := s.World.RunUntil(now)
		if errs := s.World.Audit(); len(errs) > 0 {
			t.Fatalf("audit at %v: %v (and %d more)", s.World.Now(), errs[0], len(errs)-1)
		}
		if stopped {
			break
		}
	}
}

func TestAllApproachesSurviveAudit(t *testing.T) {
	for _, a := range cluster.Approaches() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, a)
			cfg.Node.PCPUs = 4
			cfg.Seed = 17
			s := cluster.MustNew(cfg)
			prof := workload.NPB("cg", workload.ClassA)
			prof.Iterations = 8
			for vc := 0; vc < 3; vc++ {
				s.RunParallel(prof, s.VirtualCluster(fmt.Sprintf("vc%d", vc), 2, 4, nil), 2, true)
			}
			web := s.IndependentVM("web", 0, 2, vmm.ClassNonParallel)
			cli := s.IndependentVM("cli", 1, 2, vmm.ClassNonParallel)
			workload.NewWebJob(cli, 0, web, 0, 15*sim.Millisecond, sim.Millisecond, 3)
			workload.NewDiskJob(web.VCPU(1))
			auditEvery(t, s, 5*sim.Second, 100*sim.Millisecond)
		})
	}
}

func TestHeavyAllToAllConservesPackets(t *testing.T) {
	cfg := cluster.DefaultConfig(4, cluster.ATC)
	cfg.Node.PCPUs = 4
	cfg.Seed = 23
	s := cluster.MustNew(cfg)
	prof := workload.NPB("is", workload.ClassB) // all-to-all, message heavy
	prof.Iterations = 6
	run := s.RunParallel(prof, s.VirtualCluster("vc", 4, 4, nil), 2, false)
	auditEvery(t, s, 60*sim.Second, 500*sim.Millisecond)
	if run.Rounds() < 2 {
		t.Fatalf("rounds = %d", run.Rounds())
	}
	if s.World.Fabric.PacketsSent() == 0 {
		t.Fatal("no traffic")
	}
	// At quiescence everything sent must have been delivered.
	if inf := s.World.Fabric.InFlight(); inf != 0 {
		t.Errorf("in-flight packets at quiescence: %d", inf)
	}
}

func TestExtraKernelsRunEndToEnd(t *testing.T) {
	for _, k := range workload.ExtraKernels() {
		k := k
		t.Run(k, func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, cluster.ATC)
			cfg.Node.PCPUs = 4
			s := cluster.MustNew(cfg)
			prof := workload.NPB(k, workload.ClassA)
			prof.Iterations = 5
			run := s.RunParallel(prof, s.VirtualCluster("vc", 2, 4, nil), 2, false)
			if !s.Go(120 * sim.Second) {
				t.Fatalf("%s did not finish", k)
			}
			if run.MeanTime() <= 0 {
				t.Fatal("no timing")
			}
			s.World.MustAudit()
		})
	}
}

func TestEPIsInsensitiveToApproach(t *testing.T) {
	// ep has no synchronization: CR and ATC must perform within a few
	// percent of each other (control experiment for the whole thesis —
	// ATC's gains come from synchronization, not magic).
	run := func(a cluster.Approach) float64 {
		cfg := cluster.DefaultConfig(2, a)
		cfg.Node.PCPUs = 4
		cfg.Seed = 31
		s := cluster.MustNew(cfg)
		prof := workload.NPB("ep", workload.ClassA)
		prof.Iterations = 6
		var runs []*workload.ParallelRun
		for vc := 0; vc < 2; vc++ {
			runs = append(runs, s.RunParallel(prof, s.VirtualCluster(fmt.Sprintf("vc%d", vc), 2, 4, nil), 2, false))
		}
		if !s.Go(300 * sim.Second) {
			t.Fatal("horizon exceeded")
		}
		var m float64
		for _, r := range runs {
			m += r.MeanTime()
		}
		return m / float64(len(runs))
	}
	cr, atc := run(cluster.CR), run(cluster.ATC)
	ratio := atc / cr
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("ep ATC/CR = %.3f, want ~1 (no-sync control)", ratio)
	}
}

func TestDeterminismAcrossFullStack(t *testing.T) {
	fingerprint := func() string {
		cfg := cluster.DefaultConfig(2, cluster.ATC)
		cfg.Node.PCPUs = 4
		cfg.Seed = 77
		s := cluster.MustNew(cfg)
		prof := workload.NPB("mg", workload.ClassA)
		prof.Iterations = 6
		run := s.RunParallel(prof, s.VirtualCluster("vc", 2, 4, nil), 2, false)
		s.IndependentVM("np", 0, 2, vmm.ClassNonParallel)
		if !s.Go(120 * sim.Second) {
			t.Fatal("horizon exceeded")
		}
		return fmt.Sprintf("%v|%d|%d|%d",
			run.Times(), s.World.Executed(),
			s.World.Fabric.PacketsSent(), s.World.Node(0).CtxSwitches())
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Errorf("full-stack run not deterministic:\n%s\n%s", a, b)
	}
}

func TestTracerUnderFullLoad(t *testing.T) {
	cfg := cluster.DefaultConfig(2, cluster.CS)
	cfg.Node.PCPUs = 4
	s := cluster.MustNew(cfg)
	rec := telemetry.New(telemetry.Options{RecordCap: 50000})
	s.World.SetRecording(rec)
	prof := workload.NPB("lu", workload.ClassA)
	prof.Iterations = 6
	s.RunParallel(prof, s.VirtualCluster("vc", 2, 4, nil), 2, false)
	if !s.Go(120 * sim.Second) {
		t.Fatal("horizon exceeded")
	}
	recs := rec.Snapshot().Records
	if len(recs) == 0 {
		t.Fatal("no trace records under load")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("trace out of order")
		}
	}
	s.World.MustAudit()
}

func TestHorizonExceededReportsFalse(t *testing.T) {
	// Failure injection: an impossible target within a tiny horizon must
	// be reported, not hang or panic.
	cfg := cluster.DefaultConfig(1, cluster.CR)
	cfg.Node.PCPUs = 1
	s := cluster.MustNew(cfg)
	prof := workload.NPB("bt", workload.ClassC)
	s.RunParallel(prof, s.VirtualCluster("vc", 1, 2, nil), 100, false)
	if s.Go(50 * sim.Millisecond) {
		t.Fatal("impossible target reported as completed")
	}
	s.World.MustAudit()
}

func TestSingleVMClusterNoNetwork(t *testing.T) {
	// A 1-VM "cluster" must run entirely through locks, no fabric use.
	cfg := cluster.DefaultConfig(1, cluster.ATC)
	cfg.Node.PCPUs = 2
	s := cluster.MustNew(cfg)
	prof := workload.NPB("lu", workload.ClassA)
	prof.Iterations = 6
	run := s.RunParallel(prof, s.VirtualCluster("solo", 1, 4, nil), 2, false)
	if !s.Go(120 * sim.Second) {
		t.Fatal("horizon exceeded")
	}
	if run.Rounds() != 2 {
		t.Fatalf("rounds = %d", run.Rounds())
	}
	if s.World.Fabric.PacketsSent() != 0 {
		t.Errorf("single-VM cluster sent %d packets", s.World.Fabric.PacketsSent())
	}
	s.World.MustAudit()
}

func TestManySmallVMsChurn(t *testing.T) {
	// Stress: 16 single-VCPU VMs ping-ponging on 2 PCPUs with 1ms
	// slices; audit at fine granularity.
	cfg := cluster.DefaultConfig(2, cluster.CR)
	cfg.Node.PCPUs = 2
	cfg.Sched.FixedSlice = sim.Millisecond
	s := cluster.MustNew(cfg)
	var jobs []*workload.PingJob
	for i := 0; i < 8; i++ {
		a := s.IndependentVM(fmt.Sprintf("a%d", i), 0, 1, vmm.ClassNonParallel)
		b := s.IndependentVM(fmt.Sprintf("b%d", i), 1, 1, vmm.ClassNonParallel)
		jobs = append(jobs, workload.NewPingJob(a, 0, b, 0, sim.Millisecond))
	}
	auditEvery(t, s, 2*sim.Second, 50*sim.Millisecond)
	for i, j := range jobs {
		if j.Probes() < 100 {
			t.Errorf("pair %d probes = %d", i, j.Probes())
		}
	}
}
