package cluster

import (
	"testing"

	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// switchWorld is a 4-node hollow world on 2 shards running one ring
// application across every node.
func switchWorld(t *testing.T) *Scenario {
	t.Helper()
	cfg := HollowConfig(4, CR)
	cfg.Shards = 2
	s := MustNew(cfg)
	s.RunBackground(workload.HollowRing(), s.VirtualCluster("vc", 4, 1, nil))
	return s
}

// wantPolicies checks every node's scheduler name and applied-swap count.
func wantPolicies(t *testing.T, s *Scenario, names []string, swaps []uint64) {
	t.Helper()
	for i, n := range s.World.Nodes() {
		if got := n.Scheduler().Name(); got != names[i] {
			t.Errorf("at %v: node %d scheduler = %s, want %s", s.World.Now(), i, got, names[i])
		}
		if got := n.Swaps(); got != swaps[i] {
			t.Errorf("at %v: node %d swaps = %d, want %d", s.World.Now(), i, got, swaps[i])
		}
	}
}

// TestSwitchAtTargetsNodesAtNextBoundary: a switch on nodes {1,3}
// requested mid-period lands on exactly those nodes at their next period
// boundary and leaves the others alone.
func TestSwitchAtTargetsNodesAtNextBoundary(t *testing.T) {
	s := switchWorld(t)
	period := s.Cfg.Node.SchedPeriod
	if err := s.SwitchAt(period+period/2, []int{1, 3}, SchedSpec{Kind: ATC}); err != nil {
		t.Fatal(err)
	}
	// Every node's boundary falls in [k*period, k*period+TickInterval).
	s.GoFor(2*period - 1)
	wantPolicies(t, s, []string{"CR", "CR", "CR", "CR"}, []uint64{0, 0, 0, 0})
	s.ContinueFor(period)
	wantPolicies(t, s, []string{"CR", "ATC", "CR", "ATC"}, []uint64{0, 1, 0, 1})
	s.World.MustAudit()
}

// TestSwitchAtEmptyMeansAll: a nil and an empty node list both switch
// every node (scenario JSON "nodes": [] keeps meaning the whole cluster).
func TestSwitchAtEmptyMeansAll(t *testing.T) {
	for name, nodes := range map[string][]int{"nil": nil, "empty": {}} {
		s := switchWorld(t)
		period := s.Cfg.Node.SchedPeriod
		if err := s.SwitchAt(period/2, nodes, SchedSpec{Kind: DFRS}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.GoFor(2*period - 1)
		wantPolicies(t, s, []string{"DFRS", "DFRS", "DFRS", "DFRS"}, []uint64{1, 1, 1, 1})
	}
}

// TestSwitchAtRejects: an out-of-range node and an unknown policy are
// errors, and a rejected switch schedules nothing, not even on its valid
// nodes.
func TestSwitchAtRejects(t *testing.T) {
	s := switchWorld(t)
	period := s.Cfg.Node.SchedPeriod
	for _, nodes := range [][]int{{-1}, {4}, {0, 9}} {
		if err := s.SwitchAt(period, nodes, SchedSpec{Kind: ATC}); err == nil {
			t.Errorf("nodes %v accepted", nodes)
		}
	}
	if err := s.SwitchAt(period, nil, SchedSpec{Kind: "NOPE"}); err == nil {
		t.Error("unknown policy accepted")
	}
	s.GoFor(3 * period)
	wantPolicies(t, s, []string{"CR", "CR", "CR", "CR"}, []uint64{0, 0, 0, 0})
}

// TestSwitchAtNowMatchesDirectSwap: on a paused world, SwitchAt(Now())
// behaves exactly like calling Node.SwapScheduler directly — the same
// scheduler and swap count on every node at every later instant. The
// pause lands on node 0's period boundary, the one instant where an
// ordering slip would move the swap by a whole period.
func TestSwitchAtNowMatchesDirectSwap(t *testing.T) {
	viaEvent, direct := switchWorld(t), switchWorld(t)
	period := viaEvent.Cfg.Node.SchedPeriod
	viaEvent.GoFor(2 * period)
	direct.GoFor(2 * period)

	spec := SchedSpec{Kind: ATC}
	if err := viaEvent.SwitchAt(viaEvent.World.Now(), nil, spec); err != nil {
		t.Fatal(err)
	}
	f, err := spec.Factory()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range direct.World.Nodes() {
		if err := n.SwapScheduler(f); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 4*int(period/sim.Millisecond); step++ {
		viaEvent.ContinueFor(sim.Millisecond)
		direct.ContinueFor(sim.Millisecond)
		for i, a := range viaEvent.World.Nodes() {
			b := direct.World.Node(i)
			if a.Swaps() != b.Swaps() || a.Scheduler().Name() != b.Scheduler().Name() {
				t.Fatalf("at %v node %d: SwitchAt gives %s/%d swaps, direct swap %s/%d",
					viaEvent.World.Now(), i, a.Scheduler().Name(), a.Swaps(), b.Scheduler().Name(), b.Swaps())
			}
		}
	}
	wantPolicies(t, viaEvent, []string{"ATC", "ATC", "ATC", "ATC"}, []uint64{1, 1, 1, 1})
}
