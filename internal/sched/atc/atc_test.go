package atc_test

import (
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/vmmtest"
)

func TestSliceShrinksUnderSpinContention(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	// The LHP generator keeps producing spin latency; ATC must walk the
	// parallel VM's slice down toward the minimum threshold.
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	w.Start()
	w.RunUntil(5 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	got := s.CurrentSlice(vmA)
	if got >= opts.Credit.TimeSlice {
		t.Errorf("slice = %v, want shortened below default %v", got, opts.Credit.TimeSlice)
	}
	if got < opts.Control.MinThreshold {
		t.Errorf("slice = %v fell below threshold %v", got, opts.Control.MinThreshold)
	}
	if vmA.SpinMon.LifetimeCount() == 0 {
		t.Fatal("no spin samples — scenario broken")
	}
}

func TestSliceRecoversWhenContentionStops(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmA := node.NewVM("par", vmm.ClassParallel, 2, 0, 1)
	vmB := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
	l := vmA.NewLock()
	// Hammer the lock for the first phase only.
	deadline := 2 * sim.Second
	lockLoop := []vmm.Action{
		vmm.Compute(150 * sim.Microsecond),
		vmm.Acquire(l), vmm.Compute(100 * sim.Microsecond), vmm.Release(l),
	}
	for _, v := range vmA.VCPUs() {
		v.SetProcess(&vmmtest.SeqProc{Actions: lockLoop}, func(*vmm.VCPU) vmm.Process {
			if node.Engine().Now() > deadline {
				return nil
			}
			return &vmmtest.SeqProc{Actions: lockLoop}
		})
	}
	vmmtest.Loop(vmB.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	w.RunUntil(2 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	shortened := s.CurrentSlice(vmA)
	if shortened >= opts.Credit.TimeSlice {
		t.Fatalf("slice = %v never shortened", shortened)
	}
	// After the parallel work stops, zero-latency periods must relax the
	// slice back to the default.
	w.RunUntil(6 * sim.Second)
	if got := s.CurrentSlice(vmA); got != opts.Credit.TimeSlice {
		t.Errorf("slice = %v after contention stopped, want default %v", got, opts.Credit.TimeSlice)
	}
}

func TestNonParallelVMKeepsDefaultOrAdminSlice(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	plain := node.NewVM("plain", vmm.ClassNonParallel, 1, 0, 1)
	admin := node.NewVM("admin", vmm.ClassNonParallel, 1, 0, 1)
	admin.AdminSlice = 6 * sim.Millisecond
	vmmtest.Loop(plain.VCPU(0), vmm.Compute(sim.Second))
	vmmtest.Loop(admin.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	w.RunUntil(3 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.CurrentSlice(vmA); got >= opts.Credit.TimeSlice {
		t.Errorf("parallel slice = %v, want shortened", got)
	}
	if got := s.CurrentSlice(plain); got != opts.Credit.TimeSlice {
		t.Errorf("plain non-parallel slice = %v, want default", got)
	}
	if got := s.CurrentSlice(admin); got != 6*sim.Millisecond {
		t.Errorf("admin slice = %v, want 6ms", got)
	}
}

func TestAllParallelVMsGetNodeMinimum(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	// A second parallel VM with no contention at all.
	idlePar := node.NewVM("idle-par", vmm.ClassParallel, 1, 0, 1)
	vmmtest.Loop(idlePar.VCPU(0), vmm.Compute(10*sim.Millisecond))
	w.Start()
	w.RunUntil(3 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	a, b := s.CurrentSlice(vmA), s.CurrentSlice(idlePar)
	if a != b {
		t.Errorf("parallel slices differ: %v vs %v (Algorithm 2 minimum)", a, b)
	}
	if a >= opts.Credit.TimeSlice {
		t.Errorf("slice = %v, want below default", a)
	}
}

func TestAutoDetectClassifiesByContention(t *testing.T) {
	opts := atc.DefaultOptions()
	opts.AutoDetect = true
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	// Mislabel the spinning VM as non-parallel: AutoDetect must still
	// shorten its slice because it sees contended spin activity.
	vmA := node.NewVM("mislabeled", vmm.ClassNonParallel, 2, 0, 1)
	vmB := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
	l := vmA.NewLock()
	for _, v := range vmA.VCPUs() {
		vmmtest.Loop(v,
			vmm.Compute(150*sim.Microsecond),
			vmm.Acquire(l), vmm.Compute(100*sim.Microsecond), vmm.Release(l),
		)
	}
	vmmtest.Loop(vmB.VCPU(0), vmm.Compute(sim.Second))
	w.Start()
	w.RunUntil(5 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.CurrentSlice(vmA); got >= opts.Credit.TimeSlice {
		t.Errorf("autodetected slice = %v, want shortened", got)
	}
}

func TestDom0KeepsDefaultSlice(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	w.Start()
	w.RunUntil(2 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.Slice(node.Dom0().VCPU(0)); got != opts.Credit.TimeSlice {
		t.Errorf("dom0 slice = %v, want default", got)
	}
}

func TestSchedWaitSignalShortensWithoutGuestCooperation(t *testing.T) {
	// Non-intrusive mode: the controller never reads SpinMon; the
	// hypervisor-side runqueue-wait proxy must still drive the slice
	// down under contention.
	opts := atc.DefaultOptions()
	opts.Monitor = atc.SignalSchedWait
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	w.Start()
	w.RunUntil(5 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.CurrentSlice(vmA); got >= opts.Credit.TimeSlice {
		t.Errorf("slice = %v under sched-wait signal, want shortened", got)
	}
}

func TestSchedWaitSignalRecoversWhenIdle(t *testing.T) {
	opts := atc.DefaultOptions()
	opts.Monitor = atc.SignalSchedWait
	w := vmmtest.World(1, 2, atc.Factory(opts))
	node := w.Node(0)
	// A parallel VM alone on an under-loaded node: waits stay below the
	// noise floor, so the slice must remain at (or recover to) default.
	vmA := node.NewVM("quiet", vmm.ClassParallel, 1, 0, 1)
	vmmtest.Loop(vmA.VCPU(0), vmm.Compute(2*sim.Millisecond), vmm.Sleep(5*sim.Millisecond))
	w.Start()
	w.RunUntil(3 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.CurrentSlice(vmA); got != opts.Credit.TimeSlice {
		t.Errorf("slice = %v on idle node, want default", got)
	}
}

func TestAdaptiveNonParallelShortensLatencySensitiveVM(t *testing.T) {
	opts := atc.DefaultOptions()
	opts.AdaptiveNonParallel = true
	w := vmmtest.World(1, 2, atc.Factory(opts))
	node := w.Node(0)
	// A disk-I/O hammer: steady stream of I/O events → latency-sensitive.
	ioVM := node.NewVM("io", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(ioVM.VCPU(0), vmm.DiskIO(4096))
	// A pure CPU batch VM: zero I/O events → keeps the default slice.
	batch := node.NewVM("batch", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(batch.VCPU(0), vmm.Compute(sim.Second))
	// An explicit admin setting must win over the adaptive choice.
	pinned := node.NewVM("pinned", vmm.ClassNonParallel, 1, 0, 1)
	pinned.AdminSlice = 12 * sim.Millisecond
	vmmtest.Loop(pinned.VCPU(0), vmm.DiskIO(4096))
	w.Start()
	w.RunUntil(3 * sim.Second)
	s := node.Scheduler().(*atc.Scheduler)
	if got := s.CurrentSlice(ioVM); got != 6*sim.Millisecond {
		t.Errorf("latency-sensitive slice = %v, want 6ms", got)
	}
	if got := s.CurrentSlice(batch); got != opts.Credit.TimeSlice {
		t.Errorf("batch slice = %v, want default", got)
	}
	if got := s.CurrentSlice(pinned); got != 12*sim.Millisecond {
		t.Errorf("pinned slice = %v, want admin 12ms", got)
	}
}

func TestSignalString(t *testing.T) {
	for _, s := range []atc.Signal{atc.SignalSpinlock, atc.SignalSchedWait, atc.Signal(9)} {
		if s.String() == "" {
			t.Error("empty signal name")
		}
	}
}

func TestName(t *testing.T) {
	w := vmmtest.World(1, 1, atc.Factory(atc.DefaultOptions()))
	if got := w.Node(0).Scheduler().Name(); got != "ATC" {
		t.Errorf("Name = %q", got)
	}
}

// TestStaleMonitorDegradesTowardDefault: once the guest agent starts
// repeating its last reading (a monitor-stale fault), the controller
// counts the repeats as stale instead of observing them, holds the
// shortened slice for one period, and then walks it back to the default
// by α per period rather than acting on old data.
func TestStaleMonitorDegradesTowardDefault(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 1, atc.Factory(opts))
	node := w.Node(0)
	vmA, _ := vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	w.Start()
	period := node.Config().SchedPeriod
	t0 := 3*sim.Second + period/2 // mid-period: each step below crosses one boundary
	w.RunUntil(t0)
	s := node.Scheduler().(*atc.Scheduler)
	ctl := s.Controller()
	prev := s.CurrentSlice(vmA)
	if prev > opts.Credit.TimeSlice-opts.Control.Alpha {
		t.Fatalf("slice = %v before the fault, want shortened by more than α", prev)
	}
	stale0 := ctl.StaleSamples
	w.SetMonitorTap(func(vm *vmm.VM) vmm.MonitorVerdict { return vmm.MonitorVerdict{Stale: vm == vmA} })
	for k := 1; prev != opts.Credit.TimeSlice; k++ {
		if k > 10 {
			t.Fatalf("slice = %v after %d stale periods, want the default %v", prev, k-1, opts.Credit.TimeSlice)
		}
		w.RunUntil(t0 + sim.Time(k)*period)
		got := s.CurrentSlice(vmA)
		if n := ctl.StaleSamples - stale0; n != uint64(k) {
			t.Fatalf("period %d: %d stale samples counted, want %d", k, n, k)
		}
		want := min(prev+opts.Control.Alpha, opts.Credit.TimeSlice)
		if k < core.DefaultStaleAfter {
			want = prev // held until StaleAfter periods have passed
		}
		if got != want {
			t.Fatalf("stale period %d: slice = %v, want %v (from %v)", k, got, want, prev)
		}
		prev = got
	}
	if ctl.Degraded == 0 {
		t.Error("no degraded decisions counted")
	}
}

// TestOnPeriodSteadyStateAllocs pins that once the node's VMs are in the
// controller's table, a control period allocates nothing.
func TestOnPeriodSteadyStateAllocs(t *testing.T) {
	opts := atc.DefaultOptions()
	w := vmmtest.World(1, 2, atc.Factory(opts))
	node := w.Node(0)
	vmmtest.SpinPair(node, opts.Credit.TimeSlice)
	job := node.NewVM("job", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(job.VCPU(0), vmm.Compute(100*sim.Millisecond))
	w.Start()
	w.RunUntil(sim.Second)
	s := node.Scheduler()
	if got := testing.AllocsPerRun(50, func() { s.OnPeriod(node) }); got != 0 {
		t.Errorf("%v allocations per ATC period, want 0", got)
	}
}
