package vmm

import (
	"fmt"
	"slices"

	"atcsched/internal/sim"
)

// VMClass distinguishes the VM populations the paper's algorithms treat
// differently.
type VMClass int

// VM classes.
const (
	// ClassParallel hosts a rank of a tightly-coupled parallel
	// application; ATC adapts its slice from spinlock latency.
	ClassParallel VMClass = iota
	// ClassNonParallel hosts anything else; ATC leaves it at the default
	// (or admin-specified) slice.
	ClassNonParallel
	// ClassDom0 is the driver domain running netback/blkback.
	ClassDom0
)

// String returns the class name.
func (c VMClass) String() string {
	switch c {
	case ClassParallel:
		return "parallel"
	case ClassNonParallel:
		return "non-parallel"
	case ClassDom0:
		return "dom0"
	default:
		return fmt.Sprintf("VMClass(%d)", int(c))
	}
}

// Packet is a guest-to-guest network message.
type Packet struct {
	Src     *VM
	SrcProc int
	Dst     *VM
	DstProc int
	Tag     int
	Size    int
}

// mailbox is one process's receive side: the packets delivered to it in
// arrival order, and the receiver waiting on it. A process runs one
// receive at a time, so there is at most one waiter, and takeMail's
// first-match scan keeps the packets of each tag in FIFO order.
type mailbox struct {
	pkts    []Packet
	waiter  *VCPU
	waitTag int
}

// VM is a guest (or driver) domain: a set of VCPUs plus the guest-kernel
// objects the workload model needs (spinlocks, message mailboxes) and the
// monitoring state the schedulers consume.
type VM struct {
	id    int
	name  string
	node  *Node
	class VMClass

	// LatencySensitive marks the VM for vSlicer-style microslicing.
	LatencySensitive bool
	// AdminSlice, when nonzero, is the administrator-specified slice ATC
	// applies to a non-parallel VM (the paper's flexibility interface,
	// §III-C).
	AdminSlice sim.Time

	vcpus []*VCPU
	locks []*Spinlock
	// mail holds one mailbox per destination process rank.
	mail []mailbox

	// SpinMon aggregates guest spinlock latency (the ATC input signal).
	SpinMon SpinMonitor
	// monSeq/monLastVal/monLastSeq back SampleSpinPeriod: the sequence
	// number of the last fresh sample and the value it reported, so a
	// faulty monitoring path can re-serve stale readings detectably.
	monSeq     uint64
	monLastVal sim.Time
	monLastSeq uint64

	// ioWakes counts I/O-caused wakeups.
	ioWakes uint64
	// periodIOEvents counts I/O events delivered to the VM (packets,
	// disk completions) since the last sample, regardless of whether
	// they woke a blocked VCPU — the DSS input signal ("I/O behaviour").
	periodIOEvents uint64

	ctxSwitches   uint64
	spinWaitTotal sim.Time
	received      uint64
	sent          uint64

	// curSlice is the slice most recently granted to one of the VM's
	// VCPUs at dispatch — telemetry's view of the slice in force.
	curSlice sim.Time

	// periodWaitSum/periodWaitCount accumulate runqueue waits
	// (runnable → dispatched) within the current scheduling period — the
	// non-intrusive proxy signal a VMM can observe without guest
	// cooperation (the paper's future-work direction).
	periodWaitSum   sim.Time
	periodWaitCount int64
}

// ID returns the world-unique VM id.
func (vm *VM) ID() int { return vm.id }

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.name }

// Node returns the hosting physical node.
func (vm *VM) Node() *Node { return vm.node }

// Class returns the VM's class.
func (vm *VM) Class() VMClass { return vm.class }

// VCPUs returns the VM's VCPUs (do not mutate).
func (vm *VM) VCPUs() []*VCPU { return vm.vcpus }

// VCPU returns the i'th VCPU.
func (vm *VM) VCPU(i int) *VCPU { return vm.vcpus[i] }

// NewLock creates a guest spinlock owned by this VM.
func (vm *VM) NewLock() *Spinlock {
	l := &Spinlock{vm: vm, id: len(vm.locks)}
	vm.locks = append(vm.locks, l)
	return l
}

// Locks returns the VM's spinlocks (do not mutate).
func (vm *VM) Locks() []*Spinlock { return vm.locks }

// CtxSwitches returns how many times this VM's VCPUs were switched onto
// a PCPU after a different VCPU ran there.
func (vm *VM) CtxSwitches() uint64 { return vm.ctxSwitches }

// IOWakes returns the lifetime count of I/O-caused wakeups.
func (vm *VM) IOWakes() uint64 { return vm.ioWakes }

// SamplePeriodIOEvents returns and resets the per-period I/O event count
// (the DSS scheduler's signal).
func (vm *VM) SamplePeriodIOEvents() uint64 {
	n := vm.periodIOEvents
	vm.periodIOEvents = 0
	return n
}

// countIOEvent notes one delivered I/O event.
func (vm *VM) countIOEvent() {
	vm.periodIOEvents++
}

// countWait notes one runqueue wait (at dispatch).
func (vm *VM) countWait(w sim.Time) {
	vm.periodWaitSum += w
	vm.periodWaitCount++
}

// SamplePeriodWait returns the mean runqueue wait of the VM's VCPUs over
// the period since the previous call (0 with no dispatches) and resets
// the accumulator. This is the hypervisor-observable proxy for
// synchronization overhead used by ATC's non-intrusive monitoring mode.
func (vm *VM) SamplePeriodWait() sim.Time {
	if vm.periodWaitCount == 0 {
		return 0
	}
	avg := vm.periodWaitSum / sim.Time(vm.periodWaitCount)
	vm.periodWaitSum = 0
	vm.periodWaitCount = 0
	return avg
}

// SpinWaitTotal returns the total contended spin wait accumulated.
func (vm *VM) SpinWaitTotal() sim.Time { return vm.spinWaitTotal }

// PacketsReceived returns the number of packets delivered to this VM.
func (vm *VM) PacketsReceived() uint64 { return vm.received }

// PacketsSent returns the number of packets this VM posted.
func (vm *VM) PacketsSent() uint64 { return vm.sent }

// RunTime returns the summed CPU time of all VCPUs.
func (vm *VM) RunTime() sim.Time {
	var t sim.Time
	for _, v := range vm.vcpus {
		t += v.runTime
	}
	return t
}

// WaitTime returns the summed runqueue wait of all VCPUs.
func (vm *VM) WaitTime() sim.Time {
	var t sim.Time
	for _, v := range vm.vcpus {
		t += v.waitTime
	}
	return t
}

// LLCMisses returns the summed cache misses of the VM's VCPUs across all
// PCPUs of its node (the Xenoprof number for Figure 8).
func (vm *VM) LLCMisses() uint64 {
	var n uint64
	for _, p := range vm.node.pcpus {
		for _, v := range vm.vcpus {
			if v.local < len(p.clients) && p.clients[v.local] != nil {
				n += p.clients[v.local].Misses()
			}
		}
	}
	return n
}

// box returns process proc's mailbox, growing the table for a rank
// beyond the VM's VCPUs (such a packet waits with no receiver).
func (vm *VM) box(proc int) *mailbox {
	for proc >= len(vm.mail) {
		vm.mail = append(vm.mail, mailbox{})
	}
	return &vm.mail[proc]
}

// deliver places a packet in the destination mailbox and wakes a blocked
// receiver.
func (vm *VM) deliver(pkt Packet) {
	vm.received++
	vm.countIOEvent()
	mb := vm.box(pkt.DstProc)
	mb.pkts = append(mb.pkts, pkt)
	if w := mb.waiter; w != nil && mb.waitTag == pkt.Tag {
		mb.waiter = nil
		switch w.state {
		case StateBlocked:
			vm.node.wake(w, true)
		case StateRunning:
			// The receiver is busy-polling on its PCPU right now; the
			// poll observes the packet immediately.
			if w.pcpu != nil {
				w.pcpu.resumePoll(w)
			}
		default:
			// A preempted poller re-checks its mailbox on dispatch.
		}
	}
}

// find returns the index of the first queued packet with the tag, or -1.
func (mb *mailbox) find(tag int) int {
	for i := range mb.pkts {
		if mb.pkts[i].Tag == tag {
			return i
		}
	}
	return -1
}

// mailReady reports whether a packet matching (proc, tag) is queued.
func (vm *VM) mailReady(proc, tag int) bool {
	return proc < len(vm.mail) && vm.mail[proc].find(tag) >= 0
}

// takeMail removes and returns the first matching packet, keeping the
// others in arrival order.
func (vm *VM) takeMail(proc, tag int) Packet {
	if proc < len(vm.mail) {
		mb := &vm.mail[proc]
		if i := mb.find(tag); i >= 0 {
			pkt := mb.pkts[i]
			mb.pkts = slices.Delete(mb.pkts, i, i+1)
			return pkt
		}
	}
	panic(fmt.Sprintf("vmm: takeMail with empty mailbox proc=%d tag=%d on %s", proc, tag, vm.name))
}

// waitMail registers v as the receiver waiting for (proc, tag).
func (vm *VM) waitMail(proc, tag int, v *VCPU) {
	mb := vm.box(proc)
	if w := mb.waiter; w != nil {
		if w != v {
			panic(fmt.Sprintf("vmm: two receivers (%s, %s) on proc=%d tag=%d", w, v, proc, tag))
		}
		if mb.waitTag != tag {
			panic(fmt.Sprintf("vmm: %s re-registered on proc=%d under tag %d while waiting for tag %d", v, proc, tag, mb.waitTag))
		}
	}
	mb.waiter = v
	mb.waitTag = tag
}
