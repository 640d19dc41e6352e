package vmm

import (
	"fmt"
	"testing"

	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
)

// ringWorld builds nodes nodes run by the given number of workers, each
// node with one 1-VCPU VM that sends to the next node's VM and receives
// from the previous one, rounds times.
func ringWorld(t *testing.T, nodes, workers, rounds int) *World {
	t.Helper()
	cfg := DefaultNodeConfig()
	cfg.PCPUs = 1
	cfg.Dom0VCPUs = 1
	w, err := NewHeteroWorld(nodes, workers, cfg, netmodel.DefaultConfig(), func(int) SchedulerFactory {
		return func(n *Node) Scheduler { return &rrSched{node: n, slice: sim.Millisecond} }
	})
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]*VM, nodes)
	for i := range vms {
		vms[i] = w.Node(i).NewVM(fmt.Sprintf("r%d", i), ClassParallel, 1, 0, 1)
	}
	for i, vm := range vms {
		var actions []Action
		for r := 0; r < rounds; r++ {
			actions = append(actions, Send(vms[(i+1)%nodes], 0, 1, 4096), Recv(1), Compute(100*sim.Microsecond))
		}
		vm.VCPU(0).SetProcess(&seqProc{actions: actions}, nil)
	}
	return w
}

// TestWorldPending checks World.Pending at window boundaries of a ring
// run at 1 and 2 workers: it is every node engine's queued events plus
// the cross-node events collected but not yet injected into an engine.
func TestWorldPending(t *testing.T) {
	look := netmodel.DefaultConfig().WireLatency
	for _, workers := range []int{1, 2} {
		w := ringWorld(t, 4, workers, 20)
		w.Start()
		inFlight := 0
		for k := 1; k <= 200; k++ {
			w.RunUntil(sim.Time(k) * look)
			engines := 0
			for _, n := range w.Nodes() {
				engines += n.Engine().Pending()
			}
			st := w.SyncStats()
			cross := int(st.CrossPosted - st.CrossInjected)
			if got := w.Pending(); got != engines+cross {
				t.Fatalf("workers=%d at %v: Pending()=%d, want %d queued in engines + %d cross events",
					workers, w.Now(), got, engines, cross)
			}
			if cross > 0 {
				inFlight++
			}
		}
		if inFlight == 0 {
			t.Errorf("workers=%d: no window boundary had a cross event in flight", workers)
		}
		w.MustAudit()
	}
}
