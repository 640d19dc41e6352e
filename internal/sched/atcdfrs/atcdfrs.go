// Package atcdfrs is the ATC×DFRS hybrid: parallel VMs get the paper's
// adaptive time-slice control (per-period spin-latency feedback into
// Algorithm 1/2) while non-parallel VMs get DFRS CPU fractions
// redistributed from observed demand. The two planes share the credit
// core — fractions pin per-period supply through credit.SetShare, and
// parallel VMs stay on the weight-proportional pool, so the fractional
// redistribution automatically re-sizes around whatever capacity the
// parallel tenants actually consume.
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
	DFRS dfrs.Options `json:"dfrs,omitzero"`
	// Control configures the ATC controller driving the parallel VMs.
	// Control.Default is overridden by DFRS.Credit.TimeSlice.
	Control core.Config `json:"control,omitzero"`
	// NoiseFloor: spin-latency samples at or below this value are
	// treated as zero by Algorithm 1's recovery branch.
	NoiseFloor sim.Time `json:"noiseFloor,omitzero"`
}

// DefaultOptions returns stock DFRS fractions with ATC control at the
// paper's parameters.
func DefaultOptions() Options {
	return Options{
		DFRS:    dfrs.DefaultOptions(),
		Control: core.DefaultConfig(),
	}
}

// Scheduler is the hybrid: DFRS (which embeds the credit core) plus an
// ATC controller scoped to the parallel VMs.
type Scheduler struct {
	*dfrs.Scheduler
	opts Options
	ctl  *core.Controller
}

// New builds a hybrid scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	opts.Control.Default = opts.DFRS.Credit.TimeSlice
	d := dfrs.New(n, opts.DFRS)
	d.SetEligible(func(vm *vmm.VM) bool { return vm.Class() != vmm.ClassParallel })
	return &Scheduler{
		Scheduler: d,
		opts:      opts,
		ctl:       core.NewController(opts.Control),
	}
}

// Factory returns a vmm.SchedulerFactory producing hybrid schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "ATCDFRS" }

// Controller exposes the ATC controller (for tests and diagnostics).
func (s *Scheduler) Controller() *core.Controller { return s.ctl }

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
	var infos []core.VMInfo
	var parallel []*vmm.VM
	for _, vm := range n.VMs() {
		if vm.Class() != vmm.ClassParallel {
			continue
		}
		// The fault-aware monitoring path: a dropped sample yields no
		// observation this period and the controller keeps the VM's
		// existing history.
		avg, _, fresh := vm.SampleSpinPeriod()
		if avg <= s.opts.NoiseFloor {
			avg = 0
		}
		if fresh {
			s.ctl.Observe(vm.ID(), avg, s.CurrentSlice(vm))
		}
		infos = append(infos, core.VMInfo{ID: vm.ID(), Parallel: true})
		parallel = append(parallel, vm)
	}
	if len(infos) == 0 {
		return
	}
	decisions := s.ctl.NodeSlices(infos)
	for _, vm := range parallel {
		if sl := decisions[vm.ID()]; s.SetSlice(vm, sl) {
			n.TraceSlice(vm, sl)
		}
	}
}
