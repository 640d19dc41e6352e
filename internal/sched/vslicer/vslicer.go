// Package vslicer implements VS, the vSlicer baseline ([15] in the
// paper): differentiated-frequency CPU microslicing. VMs marked
// latency-sensitive are scheduled at a much finer slice (the same CPU
// share delivered in more, shorter turns), which shortens their
// scheduling delay; latency-insensitive VMs — including the parallel
// ones, which vSlicer does not recognize — keep the default slice. That
// blind spot is why the paper finds VS inferior to DSS and ATC for
// parallel workloads.
package vslicer

import (
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Options configures the VS scheduler.
type Options struct {
	// Credit configures the underlying credit core; Credit.TimeSlice is
	// the slice for latency-insensitive VMs.
	Credit credit.Options `json:"credit"`
	// MicroSlice is the slice granted to latency-sensitive VMs.
	MicroSlice sim.Time `json:"microSlice"`
}

// DefaultOptions returns the VS configuration used in the evaluation:
// 1 ms microslices (30 ms / 30, vSlicer's differentiated frequency).
func DefaultOptions() Options {
	return Options{
		Credit:     credit.DefaultOptions(),
		MicroSlice: sim.Millisecond,
	}
}

// Scheduler is VS layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
	opts Options
}

// New builds a VS scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	if opts.MicroSlice <= 0 || opts.MicroSlice >= opts.Credit.TimeSlice {
		panic("vslicer: MicroSlice must be positive and below the default slice")
	}
	return &Scheduler{Scheduler: credit.New(n, opts.Credit), opts: opts}
}

// Factory returns a vmm.SchedulerFactory producing VS schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "VS" }

// Slice implements vmm.Scheduler.
func (s *Scheduler) Slice(v *vmm.VCPU) sim.Time {
	if v.VM().LatencySensitive {
		return s.opts.MicroSlice
	}
	return s.Options().TimeSlice
}
