package daemon

import (
	"cmp"
	"io"
	"maps"
	"slices"
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/core"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// boundary is one node's scheduling-period boundary.
type boundary struct {
	at   sim.Time
	node int
}

// periodBoundaries lists the first periods boundaries of every node of
// w in time order. vmm staggers node n's accounting timers by the phase
// n·2654435761 mod TickInterval (Node.start), so only node 0's
// boundaries sit on the 30 ms grid.
func periodBoundaries(w *vmm.World, periods int) []boundary {
	var out []boundary
	for _, n := range w.Nodes() {
		cfg := n.Config()
		phase := sim.Time(uint64(n.ID())*2654435761) % cfg.TickInterval
		for k := 1; k <= periods; k++ {
			out = append(out, boundary{phase + sim.Time(k)*cfg.SchedPeriod, n.ID()})
		}
	}
	slices.SortFunc(out, func(a, b boundary) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.node, b.node)) })
	return out
}

// boundarySource samples a SimBackend's nodes one at a time, each at
// its own period boundaries, instead of all at SampleFleet's fleet-wide
// instant.
type boundarySource struct {
	b    *SimBackend
	bs   []boundary
	i    int
	node int // the node of the last batch
}

func (s *boundarySource) SampleFleet() ([]NodeBatch, error) {
	if s.i == len(s.bs) {
		return nil, io.EOF
	}
	bd := s.bs[s.i]
	s.i++
	s.b.scen.ContinueFor(bd.at - s.b.World.Now())
	batch := NodeBatch{Node: bd.node}
	for _, vm := range s.b.World.Node(bd.node).VMs() {
		if smp, ok := vm.SpinSample(); ok {
			batch.Samples = append(batch.Samples, smp)
		}
	}
	s.node = bd.node
	return []NodeBatch{batch}, nil
}

// TestCrossPathDecisionsAgree is the cross-path property. SimBackend's
// default world, faults off, runs once under in-simulator ATC and once
// as EXT actuated by a Fleet through the SimBackend, and both make the
// same slice decisions per node and period: they decide through the
// same core.Node.
//
// The one semantic difference is the sampling instant, and it is the
// property's stated offset. In-simulator ATC samples and actuates each
// node inside that node's period event; SimBackend.SampleFleet samples
// every node at one fleet-wide instant on the 30 ms grid, which is node
// 0's period boundary but trails node 1's by its timer phase (4.44 ms),
// so node 1's decisions read a shifted window and no whole-period shift
// lines them up. Through SampleFleet the property therefore holds for
// node 0; sampled at each node's own boundaries, it holds for every node.
func TestCrossPathDecisionsAgree(t *testing.T) {
	const periods = 200
	newBackend := func(kind cluster.Approach) *SimBackend {
		b, err := newSimBackend(SimBackendConfig{MaxPeriods: periods}, kind)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// In-simulator ATC: read each node's slice table right after each
	// of its period boundaries.
	in := newBackend(cluster.ATC)
	bs := periodBoundaries(in.World, periods)
	nodes := len(in.World.Nodes())
	inSim := make([][]map[int]sim.Time, nodes)
	for _, bd := range bs {
		in.scen.ContinueFor(bd.at - in.World.Now())
		n := in.World.Node(bd.node)
		s := n.Scheduler().(*atc.Scheduler)
		m := make(map[int]sim.Time)
		for _, vm := range n.VMs() {
			m[vm.ID()] = s.CurrentSlice(vm)
		}
		inSim[bd.node] = append(inSim[bd.node], m)
	}

	// EXT actuated by the fleet, every node sampled at its own boundaries.
	ext := newBackend("EXT")
	src := &boundarySource{b: ext, bs: bs}
	f := NewFleet(core.DefaultConfig(), src, ext, FleetOptions{Node: DefaultOptions()})
	fleet := make([][]map[int]sim.Time, nodes)
	for {
		if err := f.Step(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		fleet[src.node] = append(fleet[src.node], f.LastSlices(src.node))
	}
	for n := range nodes {
		for p := range periods {
			if !maps.Equal(inSim[n][p], fleet[n][p]) {
				t.Fatalf("node %d period %d: in-simulator ATC decided %v, the fleet %v", n, p+1, inSim[n][p], fleet[n][p])
			}
		}
	}

	// EXT through SimBackend.SampleFleet: node 0's boundaries are the
	// fleet's instants.
	grid := newBackend("EXT")
	f = NewFleet(core.DefaultConfig(), grid, grid, FleetOptions{Node: DefaultOptions()})
	for p := 0; ; p++ {
		if err := f.Step(); IsDone(err) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if got := f.LastSlices(0); !maps.Equal(inSim[0][p], got) {
			t.Fatalf("node 0 period %d: in-simulator ATC decided %v, the fleet through SampleFleet %v", p+1, inSim[0][p], got)
		}
	}
}
