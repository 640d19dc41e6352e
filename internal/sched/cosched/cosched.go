// Package cosched implements CS, the dynamic co-scheduling baseline
// ([7] in the paper): a VM whose average spinlock wait exceeds a
// threshold is marked for co-scheduling; at every tick its runnable
// VCPUs are gang-dispatched onto distinct PCPUs (preempting whatever runs
// there), so sibling VCPUs execute simultaneously and lock-holder
// preemption within the VM is suppressed.
//
// The paper's two observations about CS both emerge from this design:
// the VMs of one virtual *cluster* on different nodes are still scheduled
// asynchronously (each node gangs independently), and the forced
// preemptions hurt latency-sensitive and CPU-bound neighbours.
package cosched

import (
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Options configures the CS scheduler.
type Options struct {
	// Credit configures the underlying credit core.
	Credit credit.Options `json:"credit"`
	// SpinWaitThreshold marks a VM for co-scheduling when its per-period
	// average spinlock latency exceeds it.
	SpinWaitThreshold sim.Time `json:"spinWaitThreshold"`
	// CalmPeriods unmarks a VM after this many consecutive periods below
	// the threshold.
	CalmPeriods int `json:"calmPeriods"`
}

// DefaultOptions returns the CS configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		Credit:            credit.DefaultOptions(),
		SpinWaitThreshold: 200 * sim.Microsecond,
		CalmPeriods:       3,
	}
}

// Scheduler is CS layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
	opts Options
	// marked maps VM id → consecutive calm periods since marking.
	marked map[int]int
}

// New builds a CS scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	return &Scheduler{
		Scheduler: credit.New(n, opts.Credit),
		opts:      opts,
		marked:    make(map[int]int),
	}
}

// Factory returns a vmm.SchedulerFactory producing CS schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "CS" }

// Options returns the scheduler's configuration (shadowing the embedded
// credit scheduler's, which only covers the credit core).
func (s *Scheduler) Options() Options { return s.opts }

// Marked reports whether vm is currently co-scheduled.
func (s *Scheduler) Marked(vm *vmm.VM) bool {
	_, ok := s.marked[vm.ID()]
	return ok
}

// OnPeriod implements vmm.Scheduler: refill credits, then update the
// co-scheduling set from spinlock wait.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	s.Scheduler.OnPeriod(n)
	for _, vm := range n.VMs() {
		avg := vm.SpinMon.SamplePeriod()
		if avg > s.opts.SpinWaitThreshold {
			s.marked[vm.ID()] = 0
			continue
		}
		if calm, ok := s.marked[vm.ID()]; ok {
			calm++
			if calm >= s.opts.CalmPeriods {
				delete(s.marked, vm.ID())
			} else {
				s.marked[vm.ID()] = calm
			}
		}
	}
	s.gangAll(n)
}

// OnTick implements vmm.Scheduler: credit burning only. Gang dispatch
// happens at period granularity — per-tick gangs degenerate into a clean
// time-division rotation that over-states CS (each VM would get the
// whole node exclusively several times per period).
func (s *Scheduler) OnTick(n *vmm.Node) {
	s.Scheduler.OnTick(n)
}

func (s *Scheduler) gangAll(n *vmm.Node) {
	for _, vm := range n.VMs() {
		if s.Marked(vm) {
			s.gang(n, vm)
		}
	}
}

// gang places every runnable VCPU of vm at the head of a distinct PCPU's
// runqueue and preempts those PCPUs, so the siblings start together.
// VCPUs already running stay where they are; blocked VCPUs are left
// alone (they have nothing to synchronize on CPU).
func (s *Scheduler) gang(n *vmm.Node, vm *vmm.VM) {
	pcpus := n.PCPUs()
	used := make(map[int]bool, len(pcpus))
	for _, v := range vm.VCPUs() {
		if v.State() == vmm.StateRunning && v.PCPU() != nil {
			used[v.PCPU().Index()] = true
		}
	}
	var toKick []*vmm.PCPU
	for _, v := range vm.VCPUs() {
		if v.State() != vmm.StateRunnable {
			continue
		}
		target := -1
		// Prefer a PCPU not already hosting a sibling and not already
		// claimed this gang: idle first, then the one whose current VCPU
		// belongs to another VM.
		for _, p := range pcpus {
			if used[p.Index()] {
				continue
			}
			if p.Current() == nil {
				target = p.Index()
				break
			}
		}
		if target < 0 {
			for _, p := range pcpus {
				if used[p.Index()] || p.Current() == nil {
					continue
				}
				if p.Current().VM() != vm {
					target = p.Index()
					break
				}
			}
		}
		if target < 0 {
			break // more runnable siblings than PCPUs; gang what we can
		}
		used[target] = true
		s.Dequeue(v)
		s.EnqueueFront(v, target)
		p := pcpus[target]
		if p.Current() != nil {
			toKick = append(toKick, p)
		} else {
			// An idle PCPU picks the head of its queue on dispatch.
			p.Preempt()
		}
	}
	for _, p := range toKick {
		p.Preempt()
	}
}
