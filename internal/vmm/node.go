package vmm

import (
	"fmt"

	"atcsched/internal/cachemodel"
	"atcsched/internal/diskmodel"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// NodeConfig parameterizes a physical node.
type NodeConfig struct {
	// PCPUs is the number of physical cores.
	PCPUs int
	// CtxSwitchCost is the fixed cost of switching a PCPU to a different
	// VCPU (register/VMCS swap, TLB effects not covered by the cache
	// model).
	CtxSwitchCost sim.Time
	// TickInterval is the credit-burning tick (Xen: 10 ms).
	TickInterval sim.Time
	// SchedPeriod is the accounting/adaptation period (Xen: 30 ms) — the
	// granularity at which ATC recomputes slices.
	SchedPeriod sim.Time
	// Cache parameterizes each PCPU's LLC model.
	Cache cachemodel.Config
	// Disk parameterizes the node-local disk.
	Disk diskmodel.Config
	// SendCPUCost is the guest-side cost of posting one packet (I/O ring
	// copy + event-channel hypercall).
	SendCPUCost sim.Time
	// RecvCPUCost is the guest-side cost of consuming one packet.
	RecvCPUCost sim.Time
	// IOSubmitCost is the guest-side cost of issuing a disk request.
	IOSubmitCost sim.Time
	// BackendPacketCost is dom0's netback per-packet processing cost.
	BackendPacketCost sim.Time
	// BackendDiskCost is dom0's blkback per-request processing cost.
	BackendDiskCost sim.Time
	// Dom0VCPUs is the driver domain's VCPU count.
	Dom0VCPUs int
	// Dom0Footprint/Dom0ColdRate give dom0 VCPUs' cache profile.
	Dom0Footprint int64
	Dom0ColdRate  float64
	// MaxInlineSteps bounds zero-cost actions executed per step loop, to
	// catch runaway processes.
	MaxInlineSteps int
}

// DefaultNodeConfig models one node of the paper's testbed: two
// quad-core Xeon E5620s (8 PCPUs), Xen-era overheads.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		PCPUs:             8,
		CtxSwitchCost:     4 * sim.Microsecond,
		TickInterval:      10 * sim.Millisecond,
		SchedPeriod:       30 * sim.Millisecond,
		Cache:             cachemodel.DefaultConfig(),
		Disk:              diskmodel.DefaultConfig(),
		SendCPUCost:       2 * sim.Microsecond,
		RecvCPUCost:       2 * sim.Microsecond,
		IOSubmitCost:      3 * sim.Microsecond,
		BackendPacketCost: 6 * sim.Microsecond,
		BackendDiskCost:   10 * sim.Microsecond,
		Dom0VCPUs:         2,
		Dom0Footprint:     128 << 10,
		Dom0ColdRate:      0.9,
		MaxInlineSteps:    100000,
	}
}

func (c *NodeConfig) validate() error {
	switch {
	case c.PCPUs <= 0:
		return fmt.Errorf("vmm: PCPUs must be positive, got %d", c.PCPUs)
	case c.TickInterval <= 0 || c.SchedPeriod <= 0:
		return fmt.Errorf("vmm: tick/period must be positive")
	case c.Dom0VCPUs <= 0:
		return fmt.Errorf("vmm: Dom0VCPUs must be positive, got %d", c.Dom0VCPUs)
	case c.CtxSwitchCost < 0 || c.SendCPUCost < 0 || c.RecvCPUCost < 0 ||
		c.IOSubmitCost < 0 || c.BackendPacketCost < 0 || c.BackendDiskCost < 0:
		return fmt.Errorf("vmm: negative cost in config")
	case c.MaxInlineSteps <= 0:
		return fmt.Errorf("vmm: MaxInlineSteps must be positive")
	}
	return nil
}

// Node is a physical machine: PCPUs, a VMM scheduler instance, guest VMs,
// and a dom0 driver domain.
type Node struct {
	world *World
	id    int
	cfg   NodeConfig
	eng   *sim.Engine
	sched Scheduler

	pcpus   []*PCPU
	vms     []*VM // guests only
	dom0    *VM
	backend *Backend

	// vcpus is the flat dispatch-order list of every VCPU hosted on the
	// node (dom0's first, then guests in creation order); VCPU.local
	// indexes it. The hot paths iterate and index this slice instead of
	// chasing the VM pointer graph.
	vcpus []*VCPU

	// rec is the registry the node's scheduling records go to (nil when
	// the world is not recording).
	rec *telemetry.Registry

	// pendingSwap, when non-nil, is a scheduler replacement requested via
	// SwapScheduler on a started world; it is applied at the next period
	// boundary so the policy change lines up with an accounting pass.
	pendingSwap SchedulerFactory

	// tel is the node's telemetry state (nil when no plane is attached);
	// every publish site is guarded by a nil check so a detached plane
	// costs one branch.
	tel *nodeTel

	wakes    uint64
	swaps    uint64
	preempts uint64
	blocks   uint64
}

// ID returns the node index in the world.
func (n *Node) ID() int { return n.id }

// Config returns the node configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Scheduler returns the node's VMM scheduler.
func (n *Node) Scheduler() Scheduler { return n.sched }

// PCPUs returns the node's physical cores (do not mutate).
func (n *Node) PCPUs() []*PCPU { return n.pcpus }

// VMs returns the guest VMs hosted on the node (dom0 excluded).
func (n *Node) VMs() []*VM { return n.vms }

// Dom0 returns the driver domain.
func (n *Node) Dom0() *VM { return n.dom0 }

// Backend returns the node's dom0 backend machinery.
func (n *Node) Backend() *Backend { return n.backend }

// Engine returns the node's own engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// World returns the owning world.
func (n *Node) World() *World { return n.world }

// NewVM creates a guest VM with the given number of VCPUs and per-VCPU
// cache profile. Must be called before World.Start.
func (n *Node) NewVM(name string, class VMClass, vcpus int, footprint int64, coldRate float64) *VM {
	if vcpus <= 0 {
		panic(fmt.Sprintf("vmm: VM %q needs at least one VCPU", name))
	}
	if class == ClassDom0 {
		panic("vmm: dom0 is created implicitly")
	}
	vm := n.newVM(name, class, vcpus, footprint, coldRate)
	n.vms = append(n.vms, vm)
	return vm
}

func (n *Node) newVM(name string, class VMClass, vcpus int, footprint int64, coldRate float64) *VM {
	vm := &VM{
		id:    n.world.nextVMID,
		name:  name,
		node:  n,
		class: class,
		mail:  make([]mailbox, vcpus),
	}
	n.world.nextVMID++
	n.world.vms = append(n.world.vms, vm)
	for i := 0; i < vcpus; i++ {
		v := &VCPU{
			id:            n.world.nextVCPUID,
			vm:            vm,
			idx:           i,
			local:         len(n.vcpus),
			state:         StateIdle,
			burnRemaining: -1,
			runSegStart:   -1,
		}
		v.kickFn = func() { n.kickNow(v) }
		v.SetCacheProfile(footprint, coldRate)
		n.world.nextVCPUID++
		vm.vcpus = append(vm.vcpus, v)
		n.vcpus = append(n.vcpus, v)
	}
	return vm
}

// slowFactor samples the world's slowdown hook for this node (1 = full
// speed; the fault plane's straggler windows return > 1).
func (n *Node) slowFactor(now sim.Time) float64 {
	if n.world.slowFn == nil {
		return 1
	}
	if f := n.world.slowFn(n.id, now); f > 1 {
		return f
	}
	return 1
}

// wake transitions a blocked VCPU to runnable and kicks the dispatcher.
// io marks I/O-caused wakeups (counted for DSS).
func (n *Node) wake(v *VCPU, io bool) {
	if v.vm.node != n {
		panic(fmt.Sprintf("vmm: waking %s on wrong node %d", v, n.id))
	}
	if v.state != StateBlocked {
		return // spurious wake of a runnable/running/idle VCPU
	}
	if io {
		v.vm.ioWakes++
	}
	n.wakes++
	n.trace(telemetry.SchedWake, -1, v, 0)
	v.state = StateRunnable
	v.waitStart = n.eng.Now()
	n.sched.Enqueue(v, EnqueueWake)
	n.kick(v)
}

// WakeIdle revives an idle VCPU that has had a new process installed via
// SetProcess after going idle.
func (n *Node) WakeIdle(v *VCPU) {
	if v.state != StateIdle || v.proc == nil {
		return
	}
	v.state = StateRunnable
	v.waitStart = n.eng.Now()
	n.sched.Enqueue(v, EnqueueNew)
	n.kick(v)
}

// kick reacts to new runnable work: dispatch an idle PCPU, or preempt a
// running one when the scheduler's wake policy says so. Deferred to the
// current instant so wake chains inside action side effects cannot
// corrupt an in-progress step loop.
func (n *Node) kick(v *VCPU) {
	n.eng.Defer(v.kickFn)
}

// kickNow is kick's deferred body (VCPU.kickFn).
func (n *Node) kickNow(v *VCPU) {
	if v.state != StateRunnable {
		return
	}
	idle := false
	for _, p := range n.pcpus {
		if p.cur == nil {
			// Kick every idle PCPU: without runqueue stealing only
			// the woken VCPU's home PCPU can pick it up, and kick
			// cannot know which one that is. scheduleDispatch
			// coalesces, so this stays cheap.
			p.scheduleDispatch()
			idle = true
		}
	}
	if idle {
		return
	}
	// Tickle the preemptible PCPU running the longest-held slice so
	// wake preemptions spread rather than hammering PCPU 0.
	var victim *PCPU
	for _, p := range n.pcpus {
		if p.cur == nil || p.cur == v || !n.sched.WakePreempts(p, v) {
			continue
		}
		if victim == nil || p.sliceEnd < victim.sliceEnd {
			victim = p
		}
	}
	if victim != nil {
		victim.Preempt()
	}
}

// Wakes returns the number of wake transitions on this node.
func (n *Node) Wakes() uint64 { return n.wakes }

// Swaps returns the number of scheduler swaps applied on this node.
func (n *Node) Swaps() uint64 { return n.swaps }

// SwapScheduler replaces the node's scheduling policy with one built by
// f. Before World.Start the swap happens immediately; on a running world
// it is deferred to the node's next period boundary, where the old
// scheduler's runqueue state is discarded and every VCPU is re-registered
// with the new one (per-VM monitors are scheduler-independent and carry
// over). VCPUs mid-slice keep running until their slice expires.
func (n *Node) SwapScheduler(f SchedulerFactory) error {
	if f == nil {
		return fmt.Errorf("vmm: nil scheduler factory in swap for node %d", n.id)
	}
	if !n.world.started {
		s := f(n)
		if s == nil {
			return fmt.Errorf("vmm: factory returned nil scheduler for node %d", n.id)
		}
		n.sched = s
		return nil
	}
	n.pendingSwap = f
	return nil
}

// applySwap installs a pending scheduler replacement: builds the new
// scheduler, re-registers every VCPU from scratch (clearing the old
// policy's per-VCPU state), re-enqueues the runnable ones, and kicks idle
// PCPUs so the new policy dispatches right away.
func (n *Node) applySwap() {
	f := n.pendingSwap
	n.pendingSwap = nil
	s := f(n)
	if s == nil {
		panic(fmt.Sprintf("vmm: factory returned nil scheduler in swap for node %d", n.id))
	}
	n.sched = s
	for _, v := range n.vcpus {
		v.SchedData = nil
		s.Register(v)
	}
	for _, v := range n.vcpus {
		if v.state == StateRunnable {
			s.Enqueue(v, EnqueueNew)
		}
	}
	n.swaps++
	n.trace(telemetry.SchedSwap, -1, nil, 0)
	for _, p := range n.pcpus {
		if p.cur == nil {
			p.scheduleDispatch()
		}
	}
}

// CtxSwitches sums context switches across the node's PCPUs.
func (n *Node) CtxSwitches() uint64 {
	var c uint64
	for _, p := range n.pcpus {
		c += p.ctxSwitches
	}
	return c
}

// LLCMisses sums cache misses across the node's PCPUs.
func (n *Node) LLCMisses() uint64 {
	var m uint64
	for _, p := range n.pcpus {
		m += p.cache.Misses()
	}
	return m
}

// start installs dom0, timers, and the initial dispatch.
func (n *Node) start() {
	for _, v := range n.dom0.vcpus {
		v.proc = newBackendProc(n.backend)
	}
	for _, v := range n.vcpus {
		n.sched.Register(v)
	}
	// Initial accounting pass so credits exist before the first dispatch.
	n.sched.OnPeriod(n)
	for _, v := range n.vcpus {
		if v.proc != nil {
			v.state = StateRunnable
			v.waitStart = n.eng.Now()
			n.sched.Enqueue(v, EnqueueNew)
		}
	}
	var tick, period func()
	tick = func() {
		n.sched.OnTick(n)
		n.eng.Schedule(n.cfg.TickInterval, tick)
	}
	period = func() {
		if n.pendingSwap != nil {
			n.applySwap()
		}
		n.sched.OnPeriod(n)
		if n.tel != nil {
			n.sampleTelemetry()
		}
		n.eng.Schedule(n.cfg.SchedPeriod, period)
	}
	// Physical machines boot at different instants, so their accounting
	// timers are not phase-locked. Stagger each node's timers by a
	// deterministic per-node phase — without this, every node's
	// scheduling period fires simultaneously and (for example) gang
	// dispatch accidentally co-schedules whole virtual clusters across
	// nodes, which no real deployment would.
	phase := sim.Time(uint64(n.id)*2654435761) % n.cfg.TickInterval
	n.eng.Schedule(n.cfg.TickInterval+phase, tick)
	n.eng.Schedule(n.cfg.SchedPeriod+phase, period)
	for _, p := range n.pcpus {
		p.scheduleDispatch()
	}
}
