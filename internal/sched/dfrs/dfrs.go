// Package dfrs implements Dynamic Fractional Resource Scheduling over
// the credit core: instead of adapting slice *length* (ATC) each guest
// VM is granted a continuously adjustable CPU *fraction* of the node,
// re-derived every few accounting periods from its observed demand
// (CPU consumed plus runnable wait). Allocation follows the DFRS
// yield-maximizing rule — every VM's smoothed demand is scaled by the
// same factor so the minimum yield (allocation/demand) is maximal —
// with a per-VM floor, a dom0 reserve, and work-conserving reallocation
// of unclaimed fraction toward demanding VMs.
//
// Fractions act through two mechanisms: the credit core's fractional
// supply path (credit.SetShare pins each VM's per-period refill to its
// fraction) and the dispatch quantum (Slice returns the VCPU's
// per-period fractional entitlement, so a VM holding 1/8 of the node
// runs eighth-length slices instead of hoarding a full 30 ms).
package dfrs

import (
	"fmt"

	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
)

// Options configures the DFRS scheduler.
type Options struct {
	// Credit configures the underlying credit core. Credit.TimeSlice
	// caps the fractional dispatch quantum.
	Credit credit.Options `json:"credit"`
	// RedistributePeriods is how many accounting periods pass between
	// fraction redistributions (default 2: a 60 ms control interval at
	// the stock 30 ms period).
	RedistributePeriods int `json:"redistributePeriods"`
	// MinFraction floors every eligible VM's fraction so a bursty
	// tenant that went idle for one interval is not starved out of
	// restarting (default 0.02).
	MinFraction float64 `json:"minFraction"`
	// Dom0Fraction is the capacity reserved for dom0's I/O backends
	// (default 0.05). Guest fractions share what remains.
	Dom0Fraction float64 `json:"dom0Fraction"`
	// Smoothing is the EWMA weight of the newest demand observation in
	// (0,1] (default 0.5).
	Smoothing float64 `json:"smoothing"`
	// MinQuantum floors the fractional dispatch quantum (default 1 ms);
	// Credit.TimeSlice caps it.
	MinQuantum sim.Time `json:"minQuantum"`
	// NonWorkConserving leaves surplus capacity unallocated when total
	// demand is below the node's capacity, instead of scaling every
	// fraction up to absorb it. Off by default: DFRS is work-conserving.
	NonWorkConserving bool `json:"nonWorkConserving"`
}

// DefaultOptions returns the evaluation configuration: stock credit
// core with a 2-period redistribution interval.
func DefaultOptions() Options {
	return Options{
		Credit:              credit.DefaultOptions(),
		RedistributePeriods: 2,
		MinFraction:         0.02,
		Dom0Fraction:        0.05,
		Smoothing:           0.5,
		MinQuantum:          sim.Millisecond,
	}
}

// Validate checks the fractional parameters for consistency.
func (o Options) Validate() error {
	if err := o.Credit.Validate(); err != nil {
		return err
	}
	if o.RedistributePeriods < 1 {
		return fmt.Errorf("dfrs: redistribute interval must be >= 1 period, got %d", o.RedistributePeriods)
	}
	if o.MinFraction < 0 || o.MinFraction > 0.5 {
		return fmt.Errorf("dfrs: min fraction %v outside [0, 0.5]", o.MinFraction)
	}
	if o.Dom0Fraction < 0 || o.Dom0Fraction >= 1 {
		return fmt.Errorf("dfrs: dom0 fraction %v outside [0, 1)", o.Dom0Fraction)
	}
	if o.Smoothing <= 0 || o.Smoothing > 1 {
		return fmt.Errorf("dfrs: smoothing %v outside (0, 1]", o.Smoothing)
	}
	if o.MinQuantum <= 0 {
		return fmt.Errorf("dfrs: min quantum must be positive, got %v", o.MinQuantum)
	}
	if o.MinQuantum > o.Credit.TimeSlice {
		return fmt.Errorf("dfrs: min quantum %v above the %v slice cap", o.MinQuantum, o.Credit.TimeSlice)
	}
	return nil
}

// Scheduler is DFRS layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
	opts Options
	// eligible filters which guest VMs join the fraction pool (nil:
	// all of them). The ATC×DFRS hybrid restricts it to non-parallel
	// VMs; ineligible guests stay on the weighted pool and their
	// observed usage is subtracted from the distributable capacity.
	eligible func(*vmm.VM) bool
	// frac is the fraction currently in force per eligible VM id.
	frac map[int]float64
	// demand is the EWMA-smoothed demand fraction per VM id.
	demand map[int]float64
	// lastRun / lastWait remember lifetime run and wait totals per VM
	// id, to form per-interval demand deltas without consuming the
	// accumulators the ATC monitors sample.
	lastRun, lastWait map[int]sim.Time
	// periods counts accounting periods since the last redistribution.
	periods int
	// lastRedist is the virtual time of the previous redistribution
	// (the telemetry span start).
	lastRedist sim.Time
	// redists counts redistribution decisions (telemetry).
	redists uint64
	// pool and wants are redistribute's scratch, reused period to period.
	pool  []*vmm.VM
	wants []float64
}

// New builds a DFRS scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{
		Scheduler: credit.New(n, opts.Credit),
		opts:      opts,
		frac:      make(map[int]float64),
		demand:    make(map[int]float64),
		lastRun:   make(map[int]sim.Time),
		lastWait:  make(map[int]sim.Time),
	}
}

// Factory returns a vmm.SchedulerFactory producing DFRS schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "DFRS" }

// SetEligible restricts the fraction pool to VMs passing f (nil: every
// guest). Used by the ATC×DFRS hybrid before the first period runs.
func (s *Scheduler) SetEligible(f func(*vmm.VM) bool) { s.eligible = f }

// Fraction returns the fraction currently in force for vm, if any.
func (s *Scheduler) Fraction(vm *vmm.VM) (float64, bool) {
	f, ok := s.frac[vm.ID()]
	return f, ok
}

// Redistributions counts fraction redistribution decisions so far.
func (s *Scheduler) Redistributions() uint64 { return s.redists }

// Slice implements vmm.Scheduler: the VCPU's per-period fractional
// entitlement — fraction × period × PCPUs spread over the VM's VCPUs —
// clamped to [MinQuantum, TimeSlice]. Dom0, ineligible guests and VMs
// awaiting their first redistribution keep the default slice; an
// explicit admin slice on a non-parallel VM wins.
func (s *Scheduler) Slice(v *vmm.VCPU) sim.Time {
	vm := v.VM()
	if vm.Class() == vmm.ClassNonParallel && vm.AdminSlice > 0 {
		return vm.AdminSlice
	}
	f, ok := s.frac[vm.ID()]
	if !ok {
		return s.Options().TimeSlice
	}
	n := s.Node()
	q := sim.Time(f * float64(n.Config().SchedPeriod) * float64(len(n.PCPUs())) / float64(len(vm.VCPUs())))
	if q < s.opts.MinQuantum {
		q = s.opts.MinQuantum
	}
	if max := s.Options().TimeSlice; q > max {
		q = max
	}
	return q
}

// OnPeriod implements vmm.Scheduler: every RedistributePeriods periods
// re-derive the fraction vector from observed demand, then run the
// credit refill with the fractions pinned as shares.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	s.periods++
	if s.periods >= s.opts.RedistributePeriods {
		s.periods = 0
		s.redistribute(n)
	}
	s.Scheduler.OnPeriod(n)
}

// redistribute recomputes the fraction vector. Demand is observed as
// (ΔCPU + Δwait) / (interval × PCPUs) per VM — runnable wait counts as
// unmet demand — smoothed by EWMA and capped at the VM's VCPU count.
// The distributable capacity is the node minus the dom0 reserve minus
// what ineligible guests actually consumed; every want (demand floored
// at MinFraction) is then scaled by the same factor, which maximizes
// the minimum yield and, in the work-conserving default, hands surplus
// back out proportionally to demand.
func (s *Scheduler) redistribute(n *vmm.Node) {
	interval := float64(s.opts.RedistributePeriods) * float64(n.Config().SchedPeriod)
	capacity := float64(len(n.PCPUs()))
	guests := n.VMs()
	pool := s.pool[:0]
	ineligUsed := 0.0
	for _, vm := range guests {
		id := vm.ID()
		run, wait := vm.RunTime(), vm.WaitTime()
		dRun, dWait := run-s.lastRun[id], wait-s.lastWait[id]
		s.lastRun[id], s.lastWait[id] = run, wait
		if s.eligible != nil && !s.eligible(vm) {
			ineligUsed += float64(dRun) / (interval * capacity)
			if _, had := s.frac[id]; had {
				delete(s.frac, id)
				s.ClearShare(vm)
			}
			continue
		}
		obs := float64(dRun+dWait) / (interval * capacity)
		most := float64(len(vm.VCPUs())) / capacity
		if most > 1 {
			most = 1
		}
		if obs > most {
			obs = most
		}
		if d, ok := s.demand[id]; ok {
			obs = s.opts.Smoothing*obs + (1-s.opts.Smoothing)*d
		}
		s.demand[id] = obs
		pool = append(pool, vm)
	}
	s.pool = pool
	if len(pool) == 0 {
		return
	}
	avail := 1 - s.opts.Dom0Fraction - ineligUsed
	if floor := s.opts.MinFraction * float64(len(pool)); avail < floor {
		avail = floor
	}
	wantSum := 0.0
	wants := s.wants[:0]
	for _, vm := range pool {
		w := s.demand[vm.ID()]
		if w < s.opts.MinFraction {
			w = s.opts.MinFraction
		}
		wants = append(wants, w)
		wantSum += w
	}
	s.wants = wants
	scale := 1.0
	if wantSum > avail || (!s.opts.NonWorkConserving && wantSum > 0) {
		scale = avail / wantSum
	}
	for i, vm := range pool {
		f := wants[i] * scale
		// The floor survives an over-demand squeeze (avail was floored
		// at MinFraction × pool, so the overshoot is bounded and the
		// credit core's share normalization absorbs it).
		if f < s.opts.MinFraction {
			f = s.opts.MinFraction
		}
		// Scaling up never pushes a VM past what its VCPUs can burn;
		// the unusable surplus stays unallocated (dispatch is still
		// work-conserving through the OVER class).
		if most := float64(len(vm.VCPUs())) / capacity; f > most {
			f = most
		}
		if f > 1 {
			f = 1
		}
		s.frac[vm.ID()] = f
		s.SetShare(vm, f)
	}
	s.SetShare(n.Dom0(), s.opts.Dom0Fraction)
	s.redists++
	s.publish(n, pool)
}

// publish emits the redistribution decision into the node's telemetry
// registry: one fraction point and gauge per pooled VM plus a decision
// span covering the interval it closes. Strictly observational.
func (s *Scheduler) publish(n *vmm.Node, pool []*vmm.VM) {
	reg := n.TelemetryRegistry()
	if reg == nil {
		return
	}
	now := n.Engine().Now()
	for _, vm := range pool {
		lab := telemetry.Label{Node: n.ID(), VM: vm.Name()}
		reg.Point("vm_fraction", lab, now, s.frac[vm.ID()])
		reg.SetGauge("vm_fraction", lab, s.frac[vm.ID()])
	}
	reg.AddSpan(telemetry.Span{
		Name:  "redistribute",
		Track: "dfrs",
		Node:  n.ID(),
		Start: s.lastRedist,
		End:   now,
		Value: sim.Time(len(pool)),
	})
	s.lastRedist = now
}
