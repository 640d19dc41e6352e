package cluster

import (
	"testing"

	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

func TestAllApproachesBuildAndRun(t *testing.T) {
	for _, a := range Approaches() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			cfg := DefaultConfig(2, a)
			cfg.Node.PCPUs = 2
			cfg.Node.Dom0VCPUs = 1
			s := MustNew(cfg)
			vms := s.VirtualCluster("vc", 2, 2, nil)
			prof := workload.NPB("lu", workload.ClassA)
			prof.Iterations = 5
			run := s.RunParallel(prof, vms, 2, false)
			if !s.Go(120 * sim.Second) {
				t.Fatalf("%s: run did not complete (rounds=%d)", a, run.Rounds())
			}
			if run.MeanTime() <= 0 {
				t.Errorf("%s: mean time = 0", a)
			}
			if got := s.World.Node(0).Scheduler().Name(); got != string(a) {
				t.Errorf("scheduler name = %q, want %q", got, a)
			}
		})
	}
}

func TestUnknownApproachRejected(t *testing.T) {
	cfg := DefaultConfig(1, Approach("XX"))
	if _, err := New(cfg); err == nil {
		t.Error("unknown approach accepted")
	}
	cfg = DefaultConfig(1, CR)
	cfg.Sched.FixedSlice = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative slice accepted")
	}
}

func TestVirtualClusterStriping(t *testing.T) {
	cfg := DefaultConfig(4, CR)
	cfg.Node.PCPUs = 2
	s := MustNew(cfg)
	vms := s.VirtualCluster("vc", 8, 2, nil)
	if len(vms) != 8 {
		t.Fatalf("VMs = %d", len(vms))
	}
	// Round-robin placement: VM i on node i%4.
	for i, vm := range vms {
		if vm.Node().ID() != i%4 {
			t.Errorf("VM %d on node %d, want %d", i, vm.Node().ID(), i%4)
		}
		if vm.Class() != vmm.ClassParallel {
			t.Errorf("VM %d class %v", i, vm.Class())
		}
	}
	// Explicit node subset.
	sub := s.VirtualCluster("sub", 4, 2, []int{1, 3})
	for i, vm := range sub {
		want := []int{1, 3}[i%2]
		if vm.Node().ID() != want {
			t.Errorf("sub VM %d on node %d, want %d", i, vm.Node().ID(), want)
		}
	}
}

func TestAdminSliceApplied(t *testing.T) {
	cfg := DefaultConfig(1, ATC)
	cfg.NonParallelAdminSlice = 6 * sim.Millisecond
	s := MustNew(cfg)
	np := s.IndependentVM("web", 0, 1, vmm.ClassNonParallel)
	if np.AdminSlice != 6*sim.Millisecond {
		t.Errorf("AdminSlice = %v", np.AdminSlice)
	}
	par := s.IndependentVM("par", 0, 1, vmm.ClassParallel)
	if par.AdminSlice != 0 {
		t.Errorf("parallel VM got admin slice %v", par.AdminSlice)
	}
}

func TestFixedSliceAppliesToCR(t *testing.T) {
	cfg := DefaultConfig(1, CR)
	cfg.Sched.FixedSlice = 6 * sim.Millisecond
	s := MustNew(cfg)
	vm := s.IndependentVM("x", 0, 1, vmm.ClassNonParallel)
	if got := s.World.Node(0).Scheduler().Slice(vm.VCPU(0)); got != 6*sim.Millisecond {
		t.Errorf("slice = %v, want 6ms", got)
	}
}

func TestATCOptionsThreaded(t *testing.T) {
	cfg := DefaultConfig(1, ATC)
	opts := atc.DefaultOptions()
	opts.AutoDetect = true
	cfg.Sched.Options = opts
	s := MustNew(cfg)
	sched := s.World.Node(0).Scheduler().(*atc.Scheduler)
	if sched.Controller().Config().MinThreshold != 300*sim.Microsecond {
		t.Errorf("threshold = %v", sched.Controller().Config().MinThreshold)
	}
}

func TestMultipleMeasuredRunsStopTogether(t *testing.T) {
	cfg := DefaultConfig(2, CR)
	cfg.Node.PCPUs = 2
	cfg.Node.Dom0VCPUs = 1
	s := MustNew(cfg)
	profA := workload.NPB("lu", workload.ClassA)
	profA.Iterations = 4
	profB := workload.NPB("is", workload.ClassA)
	profB.Iterations = 3
	runA := s.RunParallel(profA, s.VirtualCluster("a", 2, 2, nil), 2, false)
	runB := s.RunParallel(profB, s.VirtualCluster("b", 2, 2, nil), 2, true)
	if !s.Go(300 * sim.Second) {
		t.Fatal("did not complete")
	}
	if runA.Rounds() < 2 || runB.Rounds() < 2 {
		t.Errorf("rounds = %d/%d", runA.Rounds(), runB.Rounds())
	}
	if len(s.Runs()) != 2 {
		t.Errorf("Runs() = %d", len(s.Runs()))
	}
}
