package vmm

import (
	"fmt"

	"atcsched/internal/sim"
)

// VCPUState is a VCPU's scheduling state.
type VCPUState int

// VCPU states.
const (
	// StateIdle means the VCPU has no process (never runs until one is
	// installed).
	StateIdle VCPUState = iota
	// StateRunnable means the VCPU waits in a runqueue.
	StateRunnable
	// StateRunning means the VCPU occupies a PCPU.
	StateRunning
	// StateBlocked means the VCPU waits for an event (message, disk,
	// timer, backend notification).
	StateBlocked
)

// String returns the state name.
func (s VCPUState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("VCPUState(%d)", int(s))
	}
}

// VCPU is a virtual CPU of a VM. Its workload is a Process; the dispatch
// machinery in PCPU executes the process's actions.
type VCPU struct {
	id  int
	vm  *VM
	idx int // index within the VM; doubles as the process rank
	// local is the VCPU's dense index on its node (Node.vcpus); the hot
	// dispatch paths use it to index flat per-node arrays instead of
	// chasing pointers or hashing.
	local int

	proc Process
	// OnDone is invoked when the process yields ActDone. Returning a
	// non-nil Process restarts the VCPU immediately (batch reruns, the
	// paper's repeated application rounds); returning nil idles the VCPU.
	OnDone func(v *VCPU) Process

	state VCPUState
	pcpu  *PCPU
	// kickFn is the node's deferred wake reaction for this VCPU, bound
	// once so a wake does not allocate a closure.
	kickFn func()

	// pending is the in-flight action; nil when the next one must be
	// fetched from proc. It always points at pendingBuf, which exists to
	// keep the per-action hot path allocation-free.
	pending    *Action
	pendingBuf Action
	// burnRemaining is the remaining fixed CPU cost of the pending
	// non-compute action; negative means not yet initialized.
	burnRemaining sim.Time
	// runSegStart marks when the current timed segment (compute or burn)
	// began on the PCPU; negative when no timed segment is in flight.
	runSegStart sim.Time
	// segSlow is the execution-time multiplier sampled when the current
	// timed segment started (1 when no slowdown hook is active); wall
	// time spent in the segment is divided by it before being credited
	// as work.
	segSlow float64

	spinningOn *Spinlock
	spinSince  sim.Time

	// cache profile (per-VCPU working set).
	footprint int64
	coldRate  float64

	// affinity, when non-nil, restricts the PCPUs this VCPU may run on
	// (index by node-local PCPU id) — Xen's vcpu-pin.
	affinity []bool

	// accounting
	runStart  sim.Time // dispatch time of the current run
	runTime   sim.Time // accumulated CPU time
	waitStart sim.Time // when the VCPU last became runnable
	waitTime  sim.Time // accumulated runqueue wait
	rounds    uint64   // completed ActDone count

	// SchedData is scheduler-private per-VCPU state (credits, priority).
	SchedData any
}

// VM returns the owning VM.
func (v *VCPU) VM() *VM { return v.vm }

// Index returns the VCPU's index within its VM (also its process rank).
func (v *VCPU) Index() int { return v.idx }

// ID returns the world-unique VCPU id.
func (v *VCPU) ID() int { return v.id }

// State returns the current scheduling state.
func (v *VCPU) State() VCPUState { return v.state }

// PCPU returns the PCPU the VCPU currently occupies (nil unless running).
func (v *VCPU) PCPU() *PCPU { return v.pcpu }

// Spinning reports whether the VCPU is busy-waiting on a guest spinlock.
func (v *VCPU) Spinning() bool { return v.spinningOn != nil }

// RunTime returns the accumulated CPU time consumed, settled at the last
// deschedule. Prefer CPUTime for up-to-the-instant accounting.
func (v *VCPU) RunTime() sim.Time { return v.runTime }

// CPUTime returns the CPU time consumed including the current run in
// progress — the quantity credit-style schedulers bill against.
func (v *VCPU) CPUTime() sim.Time {
	if v.state == StateRunning && v.pcpu != nil {
		return v.runTime + v.pcpu.node.eng.Now() - v.runStart
	}
	return v.runTime
}

// Rounds returns how many times the process completed (ActDone).
func (v *VCPU) Rounds() uint64 { return v.rounds }

// String renders "vmName/vcpuIdx" for diagnostics.
func (v *VCPU) String() string { return fmt.Sprintf("%s/%d", v.vm.name, v.idx) }

// SetProcess installs the workload process and completion hook. It must
// be called before World.Start, or on an idle VCPU followed by
// Node.WakeIdle.
func (v *VCPU) SetProcess(p Process, onDone func(*VCPU) Process) {
	// A completed process is cleared by the dispatcher, so a live proc
	// here means the caller is replacing an unfinished workload.
	if v.state != StateIdle || v.proc != nil {
		panic(fmt.Sprintf("vmm: SetProcess on %s in state %v with live process (install before Start, or on an idle VCPU)", v, v.state))
	}
	v.proc = p
	v.OnDone = onDone
}

// SetCacheProfile sets the per-VCPU working-set size and cold execution
// rate used by the PCPU cache model.
func (v *VCPU) SetCacheProfile(footprint int64, coldRate float64) {
	if footprint < 0 || coldRate <= 0 || coldRate > 1 {
		panic(fmt.Sprintf("vmm: invalid cache profile footprint=%d coldRate=%v", footprint, coldRate))
	}
	v.footprint = footprint
	v.coldRate = coldRate
}

// PinTo restricts the VCPU to the given node-local PCPU indices (Xen's
// vcpu-pin). Passing none clears the restriction. Schedulers consult
// AllowedOn at placement, dispatch and steal time.
func (v *VCPU) PinTo(pcpus ...int) {
	if len(pcpus) == 0 {
		v.affinity = nil
		return
	}
	n := len(v.vm.node.pcpus)
	mask := make([]bool, n)
	for _, p := range pcpus {
		if p < 0 || p >= n {
			panic(fmt.Sprintf("vmm: PinTo pcpu %d out of range [0,%d)", p, n))
		}
		mask[p] = true
	}
	v.affinity = mask
}

// AllowedOn reports whether the VCPU may run on node-local PCPU p.
func (v *VCPU) AllowedOn(p int) bool {
	if v.affinity == nil {
		return true
	}
	return p >= 0 && p < len(v.affinity) && v.affinity[p]
}

// Pinned reports whether an affinity mask is set.
func (v *VCPU) Pinned() bool { return v.affinity != nil }

// resumeFromSpin completes a spin-wait acquisition for a VCPU that is
// currently running: the lock's release path already transferred
// ownership and recorded latency; here we retire the Acquire action and
// let the PCPU continue stepping.
func (v *VCPU) resumeFromSpin() {
	if v.state != StateRunning || v.pcpu == nil {
		panic(fmt.Sprintf("vmm: resumeFromSpin on non-running VCPU %s", v))
	}
	a := v.pending
	if a == nil || a.Kind != ActAcquire {
		panic(fmt.Sprintf("vmm: resumeFromSpin without pending acquire on %s", v))
	}
	v.pending = nil
	v.burnRemaining = -1
	if a.Then != nil {
		a.Then()
	}
	v.pcpu.scheduleStep()
}
