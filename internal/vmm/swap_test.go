package vmm

import (
	"testing"

	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

func TestSwapBeforeStartAppliesImmediately(t *testing.T) {
	w := testWorld(t, 1, 1, sim.Millisecond)
	n := w.Node(0)
	if err := n.SwapScheduler(func(n *Node) Scheduler {
		return &rrSched{node: n, slice: 2 * sim.Millisecond}
	}); err != nil {
		t.Fatal(err)
	}
	if got := n.Scheduler().(*rrSched).slice; got != 2*sim.Millisecond {
		t.Errorf("pre-start swap not applied: slice %v", got)
	}
	if n.Swaps() != 0 {
		t.Errorf("pre-start swap counted as runtime swap: %d", n.Swaps())
	}
}

func TestSwapRejectsNilFactories(t *testing.T) {
	w := testWorld(t, 1, 1, sim.Millisecond)
	n := w.Node(0)
	if err := n.SwapScheduler(nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := n.SwapScheduler(func(*Node) Scheduler { return nil }); err == nil {
		t.Error("nil-returning factory accepted before start")
	}
}

func TestSwapMidRunAtPeriodBoundary(t *testing.T) {
	w := testWorld(t, 1, 1, sim.Millisecond)
	rec := telemetry.New(telemetry.Options{})
	w.SetRecording(rec)
	n := w.Node(0)
	vmA := n.NewVM("a", ClassParallel, 1, 0, 1)
	vmB := n.NewVM("b", ClassParallel, 1, 0, 1)
	var endA, endB sim.Time
	vmA.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 60 * sim.Millisecond, Then: func() { endA = n.Engine().Now() }},
	}}, nil)
	vmB.VCPU(0).SetProcess(&seqProc{actions: []Action{
		{Kind: ActCompute, Work: 60 * sim.Millisecond, Then: func() { endB = n.Engine().Now() }},
	}}, nil)
	w.Start()
	w.RunUntil(10 * sim.Millisecond)

	old := n.Scheduler()
	if err := n.SwapScheduler(func(n *Node) Scheduler {
		return &rrSched{node: n, slice: 2 * sim.Millisecond}
	}); err != nil {
		t.Fatal(err)
	}
	// Deferred: the old scheduler stays in force until the period boundary.
	w.RunUntil(29 * sim.Millisecond)
	if n.Scheduler() != old {
		t.Fatal("swap applied before the period boundary")
	}
	if n.Swaps() != 0 {
		t.Fatalf("Swaps = %d before boundary", n.Swaps())
	}
	w.RunUntil(31 * sim.Millisecond)
	if n.Scheduler() == old {
		t.Fatal("swap not applied at the period boundary")
	}
	if got := n.Scheduler().(*rrSched).slice; got != 2*sim.Millisecond {
		t.Errorf("new scheduler slice = %v", got)
	}
	if n.Swaps() != 1 {
		t.Errorf("Swaps = %d, want 1", n.Swaps())
	}

	// Both workloads must finish under the new policy: no VCPU was lost or
	// duplicated across the swap.
	w.RunUntil(sim.Second)
	if endA == 0 || endB == 0 {
		t.Fatalf("compute lost across swap: endA=%v endB=%v", endA, endB)
	}

	swaps := 0
	for _, r := range rec.Snapshot().Records {
		if r.Kind == telemetry.SchedSwap {
			swaps++
			if r.At != 30*sim.Millisecond {
				t.Errorf("swap traced at %v, want 30ms", r.At)
			}
		}
	}
	if swaps != 1 {
		t.Errorf("traced %d swap records, want 1", swaps)
	}
}

func TestHeteroWorldPerNodeFactories(t *testing.T) {
	cfg := DefaultNodeConfig()
	cfg.PCPUs = 1
	cfg.Dom0VCPUs = 1
	w, err := NewHeteroWorld(2, 1, cfg, netmodel.DefaultConfig(), func(i int) SchedulerFactory {
		slice := sim.Time(i+1) * sim.Millisecond
		return func(n *Node) Scheduler { return &rrSched{node: n, slice: slice} }
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Node(0).Scheduler().(*rrSched).slice != sim.Millisecond ||
		w.Node(1).Scheduler().(*rrSched).slice != 2*sim.Millisecond {
		t.Error("per-node factories not threaded through")
	}
	if _, err := NewHeteroWorld(1, 1, cfg, netmodel.DefaultConfig(), nil); err == nil {
		t.Error("nil factory function accepted")
	}
	if _, err := NewHeteroWorld(1, 1, cfg, netmodel.DefaultConfig(), func(int) SchedulerFactory { return nil }); err == nil {
		t.Error("nil per-node factory accepted")
	}
}
