// Package hybrid implements HY, the hybrid scheduling framework of the
// paper's related work ([6]): VMs are classified as concurrent
// (parallel) or high-throughput, and concurrent VMs' VCPUs are promoted
// — they enqueue at BOOST priority and are gang-aligned each period — so
// multi-threaded workloads inside an SMP VM synchronize cheaply. The
// paper's critique, which this implementation reproduces, is that the
// blanket priority promotion degrades co-located non-parallel tenants
// and does nothing for synchronization *across* VMs of a virtual
// cluster.
//
// HY is not part of the paper's evaluated comparison set; atcsched ships
// it as an extension baseline.
package hybrid

import (
	"atcsched/internal/sched/credit"
	"atcsched/internal/vmm"
)

// Options configures the HY scheduler.
type Options struct {
	// Credit configures the underlying credit core.
	Credit credit.Options `json:"credit"`
}

// DefaultOptions returns stock HY parameters.
func DefaultOptions() Options { return Options{Credit: credit.DefaultOptions()} }

// Scheduler is HY layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
}

// New builds an HY scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	return &Scheduler{Scheduler: credit.New(n, opts.Credit)}
}

// Factory returns a vmm.SchedulerFactory producing HY schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "HY" }

// Enqueue implements vmm.Scheduler: concurrent (parallel-class) VMs'
// VCPUs are promoted to BOOST on every enqueue — the framework's
// priority promotion.
func (s *Scheduler) Enqueue(v *vmm.VCPU, reason vmm.EnqueueReason) {
	s.Scheduler.Enqueue(v, reason)
	if v.VM().Class() == vmm.ClassParallel {
		d := s.Data(v)
		if d.Prio != credit.PrioBoost {
			// Re-insert at the promoted class. Tail of the class, not the
			// queue head: a slice-end preempt that re-entered at the head
			// would immediately win the next pick and starve every other
			// promoted VCPU on a busy PCPU.
			if s.Dequeue(v) {
				s.EnqueueBoostTail(v, d.Queue)
			}
		}
	}
}

// WakePreempts implements vmm.Scheduler: a promoted VCPU preempts
// anything below BOOST.
func (s *Scheduler) WakePreempts(p *vmm.PCPU, woken *vmm.VCPU) bool {
	if woken.VM().Class() == vmm.ClassParallel {
		cur := p.Current()
		if cur == nil {
			return true
		}
		return s.Data(cur).Prio != credit.PrioBoost || cur.VM().Class() != vmm.ClassParallel
	}
	return s.Scheduler.WakePreempts(p, woken)
}
