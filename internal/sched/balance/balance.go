// Package balance implements BS, Balance Scheduling ([4] in the paper):
// a probabilistic co-scheduling variant that never places two VCPU
// siblings of the same VM in the same PCPU runqueue, raising the chance
// that siblings run concurrently without forcing gang dispatch. As the
// paper observes, the benefit fades as the cluster grows because the
// placement constraint says nothing about VMs on other nodes.
package balance

import (
	"atcsched/internal/sched/credit"
	"atcsched/internal/vmm"
)

// Options configures the BS scheduler.
type Options struct {
	// Credit configures the underlying credit core.
	Credit credit.Options `json:"credit"`
}

// DefaultOptions returns stock BS parameters.
func DefaultOptions() Options { return Options{Credit: credit.DefaultOptions()} }

// Scheduler is BS layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
}

// New builds a BS scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	s := &Scheduler{Scheduler: credit.New(n, opts.Credit)}
	s.PlaceQueue = s.place
	return s
}

// Factory returns a vmm.SchedulerFactory producing BS schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "BS" }

// place picks the least-loaded runqueue that holds no sibling of v's VM;
// when every queue has a sibling (more VCPUs than PCPUs), it falls back
// to the least-loaded queue.
func (s *Scheduler) place(v *vmm.VCPU, reason vmm.EnqueueReason) int {
	n := s.Node()
	best, bestLen := -1, 0
	for q := range n.PCPUs() {
		if s.QueueHasSibling(q, v.VM(), v) {
			continue
		}
		l := s.QueueLen(q)
		if best < 0 || l < bestLen {
			best, bestLen = q, l
		}
	}
	if best >= 0 {
		return best
	}
	for q := range n.PCPUs() {
		l := s.QueueLen(q)
		if best < 0 || l < bestLen {
			best, bestLen = q, l
		}
	}
	return best
}
