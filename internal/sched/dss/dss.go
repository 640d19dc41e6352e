// Package dss implements DSS, dynamic switching-frequency scaling ([5]
// in the paper): each VM's time slice is set independently from its I/O
// behaviour — VMs that wake frequently for I/O get short slices (high
// switching frequency), CPU-bound VMs keep the default. The paper's
// critique emerges naturally: because slices are per-VM rather than
// node-uniform, a co-resident VM with a long slice still stretches the
// spin latency of the parallel VMs.
package dss

import (
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Tier maps an I/O event rate to a slice.
type Tier struct {
	// MinRate is the smoothed per-period I/O event rate at which this
	// tier applies. Fractional thresholds matter: a starved VM on a
	// saturated node may see less than one event per period, and that
	// trickle is exactly the signal DSS needs to shorten its slice.
	MinRate float64 `json:"minRate"`
	// Slice is the time slice granted.
	Slice sim.Time `json:"slice"`
}

// Options configures the DSS scheduler.
type Options struct {
	// Credit configures the underlying credit core; Credit.TimeSlice is
	// the slice for VMs below every tier.
	Credit credit.Options `json:"credit"`
	// Tiers must be sorted by descending MinRate; the first tier whose
	// MinRate the VM's smoothed per-period I/O event rate reaches wins.
	Tiers []Tier `json:"tiers"`
	// Smoothing is the exponential moving average weight on the new
	// period's wake count, in (0, 1].
	Smoothing float64 `json:"smoothing"`
}

// DefaultOptions returns the DSS configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		Credit: credit.DefaultOptions(),
		Tiers: []Tier{
			{MinRate: 100, Slice: sim.Millisecond},
			{MinRate: 10, Slice: 5 * sim.Millisecond},
			{MinRate: 0.4, Slice: 10 * sim.Millisecond},
		},
		Smoothing: 0.5,
	}
}

// Scheduler is DSS layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
	opts Options
	// rate is the smoothed per-period I/O wake count per VM id.
	rate map[int]float64
}

// New builds a DSS scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	if opts.Smoothing <= 0 || opts.Smoothing > 1 {
		panic("dss: Smoothing must be in (0,1]")
	}
	for i := 1; i < len(opts.Tiers); i++ {
		if opts.Tiers[i].MinRate >= opts.Tiers[i-1].MinRate {
			panic("dss: tiers must be sorted by descending MinRate")
		}
	}
	return &Scheduler{
		Scheduler: credit.New(n, opts.Credit),
		opts:      opts,
		rate:      make(map[int]float64),
	}
}

// Factory returns a vmm.SchedulerFactory producing DSS schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "DSS" }

// OnPeriod implements vmm.Scheduler: refill credits, then re-tier each
// guest VM from its smoothed I/O event rate into the credit core's slice
// table.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	s.Scheduler.OnPeriod(n)
	for _, vm := range n.VMs() {
		wakes := float64(vm.SamplePeriodIOEvents())
		prev := s.rate[vm.ID()]
		r := s.opts.Smoothing*wakes + (1-s.opts.Smoothing)*prev
		s.rate[vm.ID()] = r
		slice := s.Options().TimeSlice
		for _, t := range s.opts.Tiers {
			if r >= t.MinRate {
				slice = t.Slice
				break
			}
		}
		s.SetSlice(vm, slice)
	}
}
