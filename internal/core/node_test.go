package core

import (
	"fmt"
	"testing"

	"atcsched/internal/sim"
)

// decideLoad is one node's steady period load: vms VMs, 3 of every 4
// parallel, each sample fresh (its Seq advances) with a latency that
// cycles, so Algorithm 1 both shortens and relaxes slices.
type decideLoad struct {
	n       *Node
	samples []Sample
	period  int
}

func newDecideLoad(vms int) *decideLoad {
	l := &decideLoad{n: NewNode(DefaultConfig(), DefaultStaleAfter), samples: make([]Sample, vms)}
	for id := range l.samples {
		l.samples[id] = Sample{ID: id, Parallel: id%4 != 3}
	}
	l.step() // fill the VM table
	return l
}

// step runs one period: Decide, then Commit.
func (l *decideLoad) step() {
	l.period++
	for id := range l.samples {
		s := &l.samples[id]
		s.Seq = uint64(l.period)
		s.AvgSpinLatency = sim.Time((l.period+id)%5) * 100 * sim.Microsecond
	}
	l.n.Decide(l.samples, false)
	l.n.Commit()
}

// TestNodeDecideSteadyStateAllocs pins that once a node has seen its
// VMs, a period's Decide and Commit allocate nothing.
func TestNodeDecideSteadyStateAllocs(t *testing.T) {
	for _, vms := range []int{4, 64} {
		l := newDecideLoad(vms)
		if got := testing.AllocsPerRun(100, l.step); got != 0 {
			t.Errorf("%d VMs: %v allocations per period, want 0", vms, got)
		}
	}
}

// BenchmarkNodeDecide times one node's period through core.Node, the
// controller the fleet and the simulator's ATC run: Decide and Commit,
// per VM decision.
func BenchmarkNodeDecide(b *testing.B) {
	for _, vms := range []int{4, 64} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			l := newDecideLoad(vms)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vms), "ns/VM-decision")
		})
	}
}
