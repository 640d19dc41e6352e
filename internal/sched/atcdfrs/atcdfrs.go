// Package atcdfrs is the ATC×DFRS hybrid: parallel VMs get the paper's
// adaptive time-slice control (spin-latency samples into core.Node)
// while non-parallel VMs get DFRS CPU fractions redistributed from
// observed demand. The two planes share the credit core — fractions pin
// per-period supply through credit.SetShare, and parallel VMs stay on
// the weight-proportional pool, so the fractional redistribution
// automatically re-sizes around whatever capacity the parallel tenants
// actually consume.
package atcdfrs

import (
	"atcsched/internal/core"
	"atcsched/internal/sched/dfrs"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Options configures the hybrid.
type Options struct {
	// DFRS configures the fractional plane (and the shared credit core:
	// DFRS.Credit.TimeSlice is the default slice DEFAULT in Algorithm 1).
	DFRS dfrs.Options `json:"dfrs"`
	// Control tunes the ATC controller driving the parallel VMs.
	Control core.Params `json:"control"`
}

// DefaultOptions returns stock DFRS fractions with ATC control at the
// paper's parameters.
func DefaultOptions() Options {
	return Options{
		DFRS:    dfrs.DefaultOptions(),
		Control: core.DefaultParams(),
	}
}

// controlConfig is Control around the credit core's time slice.
func (o Options) controlConfig() core.Config {
	return core.Config{Default: o.DFRS.Credit.TimeSlice, Params: o.Control}
}

// Scheduler is the hybrid: DFRS (which embeds the credit core) plus an
// ATC controller scoped to the parallel VMs.
type Scheduler struct {
	*dfrs.Scheduler
	ctl *core.Node
	// batch is OnPeriod's scratch: the period's fresh parallel samples.
	batch []core.Sample
}

// New builds a hybrid scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	d := dfrs.New(n, opts.DFRS)
	d.SetEligible(func(vm *vmm.VM) bool { return vm.Class() != vmm.ClassParallel })
	return &Scheduler{
		Scheduler: d,
		ctl:       core.NewNode(opts.controlConfig(), core.DefaultStaleAfter),
	}
}

// Factory returns a vmm.SchedulerFactory producing hybrid schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "ATCDFRS" }

// Slice implements vmm.Scheduler: the ATC-adaptive slice from the credit
// core's slice table for parallel VMs, the DFRS fractional quantum for
// everything else.
func (s *Scheduler) Slice(v *vmm.VCPU) sim.Time {
	if vm := v.VM(); vm.Class() == vmm.ClassParallel {
		return s.CurrentSlice(vm)
	}
	return s.Scheduler.Slice(v)
}

// OnPeriod implements vmm.Scheduler: the DFRS pass (fraction
// redistribution + fractional credit refill) followed by the ATC
// control step over the parallel VMs only.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	s.Scheduler.OnPeriod(n)
	s.batch = s.batch[:0]
	for _, vm := range n.VMs() {
		if vm.Class() != vmm.ClassParallel {
			continue
		}
		if smp, fresh := vm.SpinSample(); fresh {
			s.batch = append(s.batch, smp)
		}
	}
	decided := s.ctl.Decide(s.batch, false)
	for _, vm := range n.VMs() {
		if sl, ok := decided[vm.ID()]; ok && s.SetSlice(vm, sl) {
			n.TraceSlice(vm, sl)
		}
	}
	s.ctl.Commit()
}
