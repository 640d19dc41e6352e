// Package credit implements Xen's Credit scheduler (the paper's CR
// baseline): proportional-share credits refilled every 30 ms accounting
// period and burned at 10 ms ticks, three priority classes (BOOST >
// UNDER > OVER), per-PCPU runqueues with work-conserving stealing, and
// wake "tickling" that lets a boosted VCPU preempt a lower-priority one.
//
// The core also owns the per-VM knobs the adaptive policies drive:
// weights (SetWeight), pinned CPU fractions (SetShare) and time slices
// (SetSlice). The other schedulers in atcsched (CS, BS, DSS, VS, ATC,
// DFRS) embed this core and override queue placement, slice length, or
// period behaviour.
package credit

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Priority is a runqueue class.
type Priority int

// Priority classes, in dispatch order.
const (
	PrioBoost Priority = iota
	PrioUnder
	PrioOver
	numPrios
)

// String returns the priority name.
func (p Priority) String() string {
	switch p {
	case PrioBoost:
		return "BOOST"
	case PrioUnder:
		return "UNDER"
	case PrioOver:
		return "OVER"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Options configures the credit core. A Go value is used as given: a
// zero or false field means zero or false, not "use the default", so a
// caller changing one field starts from DefaultOptions. Scenario JSON
// names only the fields it changes; the registry decodes it over the
// defaults.
type Options struct {
	// TimeSlice is the slice granted per dispatch (Xen default: 30 ms).
	TimeSlice sim.Time `json:"timeSlice"`
	// DefaultWeight is the proportional-share weight per VM (Xen: 256).
	DefaultWeight int `json:"defaultWeight"`
	// Boost enables wake boosting (on in stock Xen; off for ablation).
	Boost bool `json:"boost"`
	// Steal enables work-conserving stealing from sibling runqueues.
	Steal bool `json:"steal"`
}

// DefaultOptions returns stock Xen Credit parameters.
func DefaultOptions() Options {
	return Options{
		TimeSlice:     30 * sim.Millisecond,
		DefaultWeight: 256,
		Boost:         true,
		Steal:         true,
	}
}

// Validate checks the options for consistency (the constructor panics
// on the same conditions; Validate lets config-driven callers get an
// error instead).
func (o Options) Validate() error {
	if o.TimeSlice <= 0 {
		return fmt.Errorf("credit: time slice must be positive, got %v", o.TimeSlice)
	}
	if o.DefaultWeight <= 0 {
		return fmt.Errorf("credit: default weight must be positive, got %d", o.DefaultWeight)
	}
	return nil
}

// ApplyOverrides folds the kind-agnostic base overrides into the credit
// options: a nonzero FixedSlice replaces TimeSlice, and the disable
// flags force Boost/Steal off (never on). registry.Resolve calls it on
// every policy's credit core before Build, so it also validates.
func (o *Options) ApplyOverrides(base registry.Base) error {
	if base.FixedSlice < 0 {
		return fmt.Errorf("credit: negative fixed slice %v", base.FixedSlice)
	}
	if base.FixedSlice != 0 {
		o.TimeSlice = base.FixedSlice
	}
	if base.DisableBoost {
		o.Boost = false
	}
	if base.DisableSteal {
		o.Steal = false
	}
	return o.Validate()
}

// VCPUData is the credit state attached to each VCPU via SchedData.
type VCPUData struct {
	// Credit is the remaining CPU entitlement in sim time units.
	Credit sim.Time
	// Charged is the VCPU CPU time already billed against Credit.
	Charged sim.Time
	// lastPeriodCPU is the VCPU's CPU time at the previous accounting
	// period, to detect active VCPUs.
	lastPeriodCPU sim.Time
	// Prio is the current runqueue class.
	Prio Priority
	// Queue is the PCPU runqueue index the VCPU lives in (home PCPU).
	Queue int
	// Queued reports whether the VCPU currently sits in a runqueue.
	Queued bool
}

// Scheduler is the credit core. It implements vmm.Scheduler.
type Scheduler struct {
	node   *vmm.Node
	opts   Options
	queues [][]*vmm.VCPU // [pcpu][pos], each kept sorted by enqueue order within class
	// weights maps VM id to weight (DefaultWeight when absent).
	weights map[int]int
	// shares maps VM id to a pinned CPU fraction of node capacity in
	// [0,1]. A VM with a share draws exactly that fraction of the
	// per-period credit supply; VMs without one split the remainder
	// weight-proportionally. This is the fractional accounting path the
	// DFRS family drives (see SetShare).
	shares map[int]float64
	// slices maps VM id to the time slice in force for it (TimeSlice
	// when absent). ATC, ATC×DFRS and DSS write their decisions here,
	// and EXT takes them from a userspace daemon (see SetSlice).
	slices map[int]sim.Time
	// creditCap bounds accumulated credit to avoid unbounded hoarding.
	creditCap sim.Time
	// steals counts cross-runqueue dispatches (telemetry).
	steals uint64

	// PlaceQueue, when non-nil, overrides home-queue selection at enqueue
	// time (used by Balance Scheduling).
	PlaceQueue func(v *vmm.VCPU, reason vmm.EnqueueReason) int

	// lastCPU remembers each VM's total CPU time at the previous
	// accounting period, to detect active VMs (Xen distributes credit
	// only to active domains — an idle dom0 must not absorb supply).
	lastCPU map[int]sim.Time

	// periodVMs and active are OnPeriod's and refillVM's scratch, reused
	// from period to period.
	periodVMs []*vmm.VM
	active    []bool
}

// New builds a credit scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	if opts.TimeSlice <= 0 {
		panic("credit: non-positive time slice")
	}
	if opts.DefaultWeight <= 0 {
		panic("credit: non-positive weight")
	}
	s := &Scheduler{
		node:    n,
		opts:    opts,
		queues:  make([][]*vmm.VCPU, len(n.PCPUs())),
		weights: make(map[int]int),
		shares:  make(map[int]float64),
		slices:  make(map[int]sim.Time),
		lastCPU: make(map[int]sim.Time),
	}
	return s
}

// Factory returns a vmm.SchedulerFactory producing credit schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "CR" }

// External is the credit core under external control (EXT): it performs
// no adaptation of its own, and a userspace daemon writes per-VM slices
// into it through SetSlice — the in-simulator stand-in for a Xen whose
// slice knobs a dom0 daemon adjusts (cmd/atcd's sim backend runs the
// ATC controller outside the hypervisor and closes the loop here). It
// differs from CR only in its name.
type External struct{ *Scheduler }

// ExternalFactory returns a vmm.SchedulerFactory producing EXT schedulers.
func ExternalFactory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return &External{New(n, opts)} }
}

// Name implements vmm.Scheduler.
func (*External) Name() string { return "EXT" }

// Node returns the scheduler's node.
func (s *Scheduler) Node() *vmm.Node { return s.node }

// Options returns the configured options.
func (s *Scheduler) Options() Options { return s.opts }

// SetWeight overrides one VM's proportional-share weight.
func (s *Scheduler) SetWeight(vm *vmm.VM, w int) {
	if w <= 0 {
		panic("credit: non-positive weight")
	}
	s.weights[vm.ID()] = w
}

func (s *Scheduler) weight(vm *vmm.VM) int {
	if w, ok := s.weights[vm.ID()]; ok {
		return w
	}
	return s.opts.DefaultWeight
}

// SetShare pins vm's per-period credit supply to frac of node capacity
// (1.0 = every PCPU for the whole period). Shared VMs are refilled
// before the weight-proportional pool, which then splits only the
// remaining supply; when the shares of the period's active VMs sum
// above 1 they are scaled down proportionally. Fractional policies
// (DFRS) drive this instead of SetWeight.
func (s *Scheduler) SetShare(vm *vmm.VM, frac float64) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("credit: share %v outside [0,1]", frac))
	}
	s.shares[vm.ID()] = frac
}

// ClearShare removes vm's pinned fraction, returning it to the
// weight-proportional pool.
func (s *Scheduler) ClearShare(vm *vmm.VM) { delete(s.shares, vm.ID()) }

// Share returns vm's pinned fraction, if any.
func (s *Scheduler) Share(vm *vmm.VM) (float64, bool) {
	f, ok := s.shares[vm.ID()]
	return f, ok
}

// SetSlice sets the time slice in force for vm; a non-positive slice
// clears the entry, returning vm to TimeSlice. It reports whether the
// table entry changed: the first setting counts as a change even when
// it equals the default, so a policy that traces on change records
// every VM's first decision.
func (s *Scheduler) SetSlice(vm *vmm.VM, slice sim.Time) (changed bool) {
	old, ok := s.slices[vm.ID()]
	if slice <= 0 {
		delete(s.slices, vm.ID())
		return ok
	}
	s.slices[vm.ID()] = slice
	return !ok || old != slice
}

// CurrentSlice returns the slice in force for vm.
func (s *Scheduler) CurrentSlice(vm *vmm.VM) sim.Time {
	if sl, ok := s.slices[vm.ID()]; ok {
		return sl
	}
	return s.opts.TimeSlice
}

// Data returns the credit state of v, creating it if needed.
func (s *Scheduler) Data(v *vmm.VCPU) *VCPUData {
	d, ok := v.SchedData.(*VCPUData)
	if !ok {
		d = &VCPUData{Queue: -1}
		v.SchedData = d
	}
	return d
}

// Register implements vmm.Scheduler.
func (s *Scheduler) Register(v *vmm.VCPU) {
	d := s.Data(v)
	if d.Queue < 0 {
		// Spread home queues across PCPUs, honoring affinity.
		d.Queue = v.ID() % len(s.queues)
		if !v.AllowedOn(d.Queue) {
			for q := range s.queues {
				if v.AllowedOn(q) {
					d.Queue = q
					break
				}
			}
		}
	}
	d.Prio = PrioUnder
}

// charge bills v's CPU consumption since the last charge against its
// credit balance.
func (s *Scheduler) charge(v *vmm.VCPU, d *VCPUData) {
	cpu := v.CPUTime()
	if delta := cpu - d.Charged; delta > 0 {
		d.Credit -= delta
		if s.creditCap > 0 && d.Credit < -s.creditCap {
			d.Credit = -s.creditCap
		}
		d.Charged = cpu
	}
}

// Enqueue implements vmm.Scheduler.
func (s *Scheduler) Enqueue(v *vmm.VCPU, reason vmm.EnqueueReason) {
	d := s.Data(v)
	if d.Queued {
		panic(fmt.Sprintf("credit: %s enqueued twice", v))
	}
	s.charge(v, d)
	if reason == vmm.EnqueueWake && s.opts.Boost && d.Credit > 0 {
		d.Prio = PrioBoost
	} else if d.Prio == PrioBoost && reason == vmm.EnqueuePreempt {
		// A preempted boost VCPU drops back to its credit class.
		d.Prio = s.creditPrio(d)
	} else if d.Prio != PrioBoost {
		d.Prio = s.creditPrio(d)
	}
	q := d.Queue
	if s.PlaceQueue != nil {
		q = s.PlaceQueue(v, reason)
	}
	if !v.AllowedOn(q) {
		for cand := range s.queues {
			if v.AllowedOn(cand) {
				q = cand
				break
			}
		}
	}
	if q < 0 || q >= len(s.queues) {
		panic(fmt.Sprintf("credit: bad queue %d for %s", q, v))
	}
	d.Queue = q
	d.Queued = true
	s.queues[q] = s.insertByClass(s.queues[q], v, d.Prio)
}

// insertByClass appends v at the tail of its priority class.
func (s *Scheduler) insertByClass(q []*vmm.VCPU, v *vmm.VCPU, prio Priority) []*vmm.VCPU {
	pos := len(q)
	for i, o := range q {
		if s.Data(o).Prio > prio {
			pos = i
			break
		}
	}
	return insertAt(q, pos, v)
}

// insertAt inserts v at q[pos] in place, growing q only when it is full.
// Runqueues never leave the package, so reusing their backing arrays is
// invisible to callers.
func insertAt(q []*vmm.VCPU, pos int, v *vmm.VCPU) []*vmm.VCPU {
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = v
	return q
}

// removeAt deletes q[i] in place.
func removeAt(q []*vmm.VCPU, i int) []*vmm.VCPU {
	n := len(q) - 1
	copy(q[i:], q[i+1:])
	q[n] = nil
	return q[:n]
}

// EnqueueFront pushes v at the very head of queue q with BOOST class —
// used by co-scheduling gang dispatch.
func (s *Scheduler) EnqueueFront(v *vmm.VCPU, q int) {
	d := s.Data(v)
	if d.Queued {
		panic(fmt.Sprintf("credit: EnqueueFront of queued %s", v))
	}
	d.Prio = PrioBoost
	d.Queue = q
	d.Queued = true
	s.queues[q] = insertAt(s.queues[q], 0, v)
}

// EnqueueBoostTail inserts v at the tail of queue q's BOOST class —
// priority promotion without queue-head hogging, so promoted VCPUs
// still round-robin among themselves (hybrid's blanket promotion).
func (s *Scheduler) EnqueueBoostTail(v *vmm.VCPU, q int) {
	d := s.Data(v)
	if d.Queued {
		panic(fmt.Sprintf("credit: EnqueueBoostTail of queued %s", v))
	}
	d.Prio = PrioBoost
	d.Queue = q
	d.Queued = true
	s.queues[q] = s.insertByClass(s.queues[q], v, PrioBoost)
}

// Dequeue removes v from its runqueue; it returns false when v was not
// queued.
func (s *Scheduler) Dequeue(v *vmm.VCPU) bool {
	d := s.Data(v)
	if !d.Queued {
		return false
	}
	q := s.queues[d.Queue]
	for i, o := range q {
		if o == v {
			s.queues[d.Queue] = removeAt(q, i)
			d.Queued = false
			return true
		}
	}
	panic(fmt.Sprintf("credit: %s marked queued but absent from queue %d", v, d.Queue))
}

// QueueLen returns the length of PCPU q's runqueue.
func (s *Scheduler) QueueLen(q int) int { return len(s.queues[q]) }

// QueueVMs reports whether queue q contains (or PCPU q runs) a VCPU of
// vm — the Balance Scheduling predicate.
func (s *Scheduler) QueueHasSibling(q int, vm *vmm.VM, exclude *vmm.VCPU) bool {
	if cur := s.node.PCPUs()[q].Current(); cur != nil && cur.VM() == vm && cur != exclude {
		return true
	}
	for _, o := range s.queues[q] {
		if o.VM() == vm && o != exclude {
			return true
		}
	}
	return false
}

func (s *Scheduler) creditPrio(d *VCPUData) Priority {
	if d.Credit > 0 {
		return PrioUnder
	}
	return PrioOver
}

// PickNext implements vmm.Scheduler: pop the best-class head across the
// node. The own queue wins ties; a sibling queue's head is stolen only
// when its class is strictly better (this is how a tickled PCPU ends up
// running the freshly boosted VCPU even though it was enqueued
// elsewhere, matching Xen's wake path) or when the own queue is empty.
func (s *Scheduler) PickNext(p *vmm.PCPU) *vmm.VCPU {
	own := p.Index()
	ownPrio := numPrios
	if len(s.queues[own]) > 0 {
		ownPrio = s.Data(s.queues[own][0]).Prio
	}
	if !s.opts.Steal {
		return s.popQueue(own, own)
	}
	best := -1
	bestPrio := ownPrio
	bestLen := 0
	for q := range s.queues {
		if q == own || len(s.queues[q]) == 0 {
			continue
		}
		head := s.queues[q][0]
		if !head.AllowedOn(own) {
			continue
		}
		prio := s.Data(head).Prio
		if int(prio) < int(bestPrio) || (ownPrio == numPrios && prio == bestPrio && len(s.queues[q]) > bestLen) {
			best, bestPrio, bestLen = q, prio, len(s.queues[q])
		}
	}
	if best < 0 {
		return s.popQueue(own, own)
	}
	v := s.popQueue(best, own)
	if v == nil {
		return s.popQueue(own, own)
	}
	s.steals++
	s.Data(v).Queue = own // migrate home
	return v
}

// Steals returns how many dispatches pulled a VCPU from a sibling
// runqueue (work-conserving stealing; 0 with Steal disabled).
func (s *Scheduler) Steals() uint64 { return s.steals }

// popQueue removes and returns the first VCPU in queue q that may run
// on PCPU `on` (usually on == q; stealing passes the stealer).
func (s *Scheduler) popQueue(q, on int) *vmm.VCPU {
	for i, v := range s.queues[q] {
		if !v.AllowedOn(on) {
			continue
		}
		s.queues[q] = removeAt(s.queues[q], i)
		s.Data(v).Queued = false
		return v
	}
	return nil
}

// Slice implements vmm.Scheduler: the VM's entry in the slice table.
func (s *Scheduler) Slice(v *vmm.VCPU) sim.Time { return s.CurrentSlice(v.VM()) }

// WakePreempts implements vmm.Scheduler: a woken VCPU preempts a PCPU
// whose current VCPU has a strictly worse class.
func (s *Scheduler) WakePreempts(p *vmm.PCPU, woken *vmm.VCPU) bool {
	cur := p.Current()
	if cur == nil {
		return true
	}
	return s.Data(woken).Prio < s.Data(cur).Prio
}

// OnTick implements vmm.Scheduler: bill running VCPUs' consumption and
// retire their BOOST.
func (s *Scheduler) OnTick(n *vmm.Node) {
	for _, p := range n.PCPUs() {
		cur := p.Current()
		if cur == nil {
			continue
		}
		d := s.Data(cur)
		s.charge(cur, d)
		if d.Prio == PrioBoost {
			d.Prio = s.creditPrio(d)
		}
	}
}

// OnPeriod implements vmm.Scheduler: refill credits proportionally to
// the weights of the *active* VMs (a VM is active when it consumed CPU
// since the last period or has runnable work). Active VMs carrying a
// pinned fraction (SetShare) are supplied first — exactly their
// fraction of the period's capacity — and the weight-proportional pool
// splits what remains.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	all := append(append(s.periodVMs[:0], n.Dom0()), n.VMs()...)
	s.periodVMs = all
	vms := all[:0] // filtered in place: the write index never passes the read
	for _, vm := range all {
		var cpu sim.Time
		runnable := false
		for _, v := range vm.VCPUs() {
			cpu += v.CPUTime()
			if st := v.State(); st == vmm.StateRunnable || st == vmm.StateRunning {
				runnable = true
			}
		}
		if cpu > s.lastCPU[vm.ID()] || runnable {
			vms = append(vms, vm)
		}
		s.lastCPU[vm.ID()] = cpu
	}
	var weightSum int
	fracSum := 0.0
	for _, vm := range vms {
		if f, ok := s.shares[vm.ID()]; ok {
			fracSum += f
		} else {
			weightSum += s.weight(vm)
		}
	}
	if weightSum == 0 && fracSum == 0 {
		return
	}
	// Over-committed shares (active shared VMs asking for more than the
	// node) squeeze proportionally; the weighted pool then gets nothing.
	norm := 1.0
	if fracSum > 1 {
		norm = 1 / fracSum
	}
	total := float64(n.Config().SchedPeriod) * float64(len(n.PCPUs()))
	remaining := total * (1 - fracSum*norm)
	for _, vm := range vms {
		var share sim.Time
		if f, ok := s.shares[vm.ID()]; ok {
			share = sim.Time(total * f * norm)
		} else {
			share = sim.Time(remaining * float64(s.weight(vm)) / float64(weightSum))
		}
		s.refillVM(vm, share)
	}
}

// refillVM distributes one VM's per-period credit supply over its
// active VCPUs.
func (s *Scheduler) refillVM(vm *vmm.VM, share sim.Time) {
	// The VM's share is split among its *active* VCPUs, as Xen's
	// csched does — a VM running one busy process on an 8-VCPU VM
	// gets its whole entitlement on that VCPU rather than burning
	// 7/8 of it on idle siblings.
	if cap(s.active) < len(vm.VCPUs()) {
		s.active = make([]bool, len(vm.VCPUs()))
	}
	active := s.active[:len(vm.VCPUs())]
	clear(active)
	nActive := 0
	for i, v := range vm.VCPUs() {
		d := s.Data(v)
		cpu := v.CPUTime()
		st := v.State()
		if cpu > d.lastPeriodCPU || st == vmm.StateRunnable || st == vmm.StateRunning {
			active[i] = true
			nActive++
		}
		d.lastPeriodCPU = cpu
	}
	if nActive == 0 {
		for i := range active {
			active[i] = true
		}
		nActive = len(active)
	}
	perVCPU := share / sim.Time(nActive)
	if s.creditCap < 2*perVCPU {
		s.creditCap = 2 * perVCPU
	}
	for i, v := range vm.VCPUs() {
		d := s.Data(v)
		s.charge(v, d)
		if active[i] {
			d.Credit += perVCPU
		}
		if d.Credit > s.creditCap {
			d.Credit = s.creditCap
		}
		if d.Prio != PrioBoost {
			d.Prio = s.creditPrio(d)
		}
	}
}
