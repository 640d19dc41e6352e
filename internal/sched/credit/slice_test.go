package credit_test

import (
	"testing"

	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/vmmtest"
)

// TestSetSliceContract pins what SetSlice reports: the first setting is
// a change even at the default (policies that trace on change rely on
// it for their first-period record), a repeat is not, and a
// non-positive slice clears the entry back to TimeSlice.
func TestSetSliceContract(t *testing.T) {
	w := world(t, 1, 1, credit.DefaultOptions())
	node := w.Node(0)
	vm := node.NewVM("x", vmm.ClassParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.Scheduler)
	def := s.Options().TimeSlice
	steps := []struct {
		slice   sim.Time
		changed bool
		current sim.Time
	}{
		{def, true, def},
		{def, false, def},
		{2 * sim.Millisecond, true, 2 * sim.Millisecond},
		{2 * sim.Millisecond, false, 2 * sim.Millisecond},
		{0, true, def},
		{0, false, def},
		{-sim.Millisecond, false, def},
		{def, true, def},
		{-sim.Millisecond, true, def},
	}
	for i, st := range steps {
		if got := s.SetSlice(vm, st.slice); got != st.changed {
			t.Errorf("step %d: SetSlice(%v) changed = %v, want %v", i, st.slice, got, st.changed)
		}
		if got := s.CurrentSlice(vm); got != st.current {
			t.Errorf("step %d: CurrentSlice = %v, want %v", i, got, st.current)
		}
	}
}

// maxRun returns the longest dispatch-to-preemption run of vm's VCPUs in
// the trace. A run includes the few microseconds of context-switch cost
// on top of the slice.
func maxRun(recs []telemetry.SchedEvent, vm *vmm.VM) sim.Time {
	var longest sim.Time
	start := map[int]sim.Time{}
	for _, r := range recs {
		if r.VM != vm.Name() {
			continue
		}
		switch r.Kind {
		case telemetry.SchedDispatch:
			start[r.VCPU] = r.At
		case telemetry.SchedPreempt:
			if d := r.At - start[r.VCPU]; d > longest {
				longest = d
			}
		}
	}
	return longest
}

// TestSetSliceGovernsDispatch: under plain CR, a VM with a slice in the
// table is dispatched with that slice while its neighbour keeps the
// default.
func TestSetSliceGovernsDispatch(t *testing.T) {
	w := world(t, 1, 1, credit.DefaultOptions())
	rec := telemetry.New(telemetry.Options{})
	w.SetRecording(rec)
	node := w.Node(0)
	short := node.NewVM("short", vmm.ClassNonParallel, 1, 0, 1)
	long := node.NewVM("long", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(short.VCPU(0), vmm.Compute(sim.Second))
	vmmtest.Loop(long.VCPU(0), vmm.Compute(sim.Second))
	s := node.Scheduler().(*credit.Scheduler)
	s.SetSlice(short, 3*sim.Millisecond)
	if got := s.Slice(short.VCPU(0)); got != 3*sim.Millisecond {
		t.Errorf("Slice(short) = %v, want 3ms", got)
	}
	w.Start()
	w.RunUntil(sim.Second)
	recs := rec.Snapshot().Records
	near := func(got, want sim.Time) bool { return got >= want && got < want+100*sim.Microsecond }
	if got := maxRun(recs, short); !near(got, 3*sim.Millisecond) {
		t.Errorf("longest run of the 3ms VM = %v", got)
	}
	if got := maxRun(recs, long); !near(got, s.Options().TimeSlice) {
		t.Errorf("longest run of the default VM = %v, want %v", got, s.Options().TimeSlice)
	}
}

// TestSwappedSchedulerStartsWithEmptySliceTable: a policy swapped in at
// a period boundary does not inherit its predecessor's slices.
func TestSwappedSchedulerStartsWithEmptySliceTable(t *testing.T) {
	w := world(t, 1, 1, credit.DefaultOptions())
	node := w.Node(0)
	vm := node.NewVM("x", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(vm.VCPU(0), vmm.Compute(sim.Second))
	old := node.Scheduler().(*credit.Scheduler)
	old.SetSlice(vm, 2*sim.Millisecond)
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	if err := node.SwapScheduler(credit.Factory(credit.DefaultOptions())); err != nil {
		t.Fatal(err)
	}
	w.RunUntil(200 * sim.Millisecond)
	s := node.Scheduler().(*credit.Scheduler)
	if s == old || node.Swaps() != 1 {
		t.Fatalf("scheduler not swapped (swaps %d)", node.Swaps())
	}
	if got := s.CurrentSlice(vm); got != s.Options().TimeSlice {
		t.Errorf("CurrentSlice after swap = %v, want the default", got)
	}
	if !s.SetSlice(vm, 2*sim.Millisecond) {
		t.Error("first SetSlice on the swapped-in scheduler reported no change")
	}
}

func TestExternalSliceApplied(t *testing.T) {
	w := vmmtest.World(1, 1, credit.ExternalFactory(credit.DefaultOptions()))
	node := w.Node(0)
	vm := node.NewVM("x", vmm.ClassParallel, 1, 0, 1)
	s := node.Scheduler().(*credit.External)
	if s.Name() != "EXT" {
		t.Errorf("Name = %q", s.Name())
	}
	v := vm.VCPU(0)
	if got := s.Slice(v); got != 30*sim.Millisecond {
		t.Errorf("default slice = %v", got)
	}
	s.SetSlice(vm, 2*sim.Millisecond)
	if got := s.Slice(v); got != 2*sim.Millisecond {
		t.Errorf("set slice = %v", got)
	}
	if got := s.CurrentSlice(vm); got != 2*sim.Millisecond {
		t.Errorf("CurrentSlice = %v", got)
	}
	s.SetSlice(vm, 0) // reset
	if got := s.Slice(v); got != 30*sim.Millisecond {
		t.Errorf("reset slice = %v", got)
	}
}

func TestExternalSliceGovernsPreemption(t *testing.T) {
	// Two hogs; slice set externally to 1ms must produce ~30x the
	// context switches of the default.
	run := func(slice sim.Time) uint64 {
		w := vmmtest.World(1, 1, credit.ExternalFactory(credit.DefaultOptions()))
		node := w.Node(0)
		var vms []*vmm.VM
		for i := 0; i < 2; i++ {
			vm := node.NewVM("hog", vmm.ClassNonParallel, 1, 0, 1)
			vmmtest.Loop(vm.VCPU(0), vmm.Compute(sim.Second))
			vms = append(vms, vm)
		}
		if slice > 0 {
			s := node.Scheduler().(*credit.External)
			for _, vm := range vms {
				s.SetSlice(vm, slice)
			}
		}
		w.Start()
		w.RunUntil(sim.Second)
		return node.CtxSwitches()
	}
	fine := run(sim.Millisecond)
	coarse := run(0)
	if fine < 10*coarse {
		t.Errorf("ctx switches fine=%d coarse=%d", fine, coarse)
	}
}
