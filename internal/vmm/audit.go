package vmm

import (
	"fmt"

	"atcsched/internal/sim"
)

// Audit validates the world's internal invariants and returns the list
// of violations (empty when healthy). It is safe to call at any point
// between events — tests call it mid-run and at shutdown, and it's a
// useful debugging tool when writing new schedulers or workloads.
//
// Checked invariants:
//
//  1. PCPU/VCPU linkage: a PCPU's current VCPU is Running and points
//     back at it; a Running VCPU is some PCPU's current.
//  2. CPU-time conservation: per node, the sum of VCPU CPU time equals
//     the sum of PCPU busy time.
//  3. Packet conservation: every posted packet is delivered, queued in
//     a backend, in flight on the fabric, or waiting in a mailbox.
//  4. Mailbox waiters: every registered receiver is actually waiting on
//     a matching receive.
//  5. Spinlock sanity: holder and reservation are mutually exclusive;
//     every spinning VCPU is known to its lock.
func (w *World) Audit() []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	running := map[*VCPU]*PCPU{}
	for _, n := range w.nodes {
		var busy, cpu sim.Time
		for _, p := range n.pcpus {
			if p.cur != nil {
				if p.cur.state != StateRunning {
					bad("node%d pcpu%d current %s in state %v", n.id, p.idx, p.cur, p.cur.state)
				}
				if p.cur.pcpu != p {
					bad("node%d pcpu%d current %s points at different pcpu", n.id, p.idx, p.cur)
				}
				running[p.cur] = p
			}
			busy += p.BusyTime()
		}
		for _, v := range n.vcpus {
			cpu += v.CPUTime()
			if v.state == StateRunning {
				if _, ok := running[v]; !ok {
					bad("%s Running but not current on any pcpu", v)
				}
			}
			if v.state != StateRunning && v.pcpu != nil {
				bad("%s state %v but pcpu set", v, v.state)
			}
		}
		if d := busy - cpu; d > sim.Microsecond || d < -sim.Microsecond {
			bad("node%d CPU-time conservation: busy %v vs vcpu cpu %v", n.id, busy, cpu)
		}
	}

	// Packet conservation across the world.
	var sent, received, mailbox, backendQ uint64
	for _, vm := range w.vms {
		sent += vm.sent
		received += vm.received
		for i := range vm.mail {
			mailbox += uint64(len(vm.mail[i].pkts))
		}
	}
	for _, n := range w.nodes {
		backendQ += uint64(n.backend.tx.len() + n.backend.rx.len() + n.backend.processing)
	}
	// received counts deliveries into mailboxes (consumed or not), so:
	// sent == received + backend queues + fabric in flight.
	if sent != received+backendQ+w.Fabric.InFlight() {
		bad("packet conservation: sent %d != delivered %d + backend %d + wire %d",
			sent, received, backendQ, w.Fabric.InFlight())
	}
	if mailbox > received {
		bad("mailboxes hold %d packets but only %d were delivered", mailbox, received)
	}

	// Mailbox waiters point at genuine receivers.
	for _, vm := range w.vms {
		for proc := range vm.mail {
			mb := &vm.mail[proc]
			v := mb.waiter
			if v == nil {
				continue
			}
			a := v.pending
			if a == nil || a.Kind != ActRecv || a.Tag != mb.waitTag || v.vm != vm || v.idx != proc {
				bad("%s: waiter %s not blocked on recv proc=%d tag=%d", vm.name, v, proc, mb.waitTag)
			}
			if v.state == StateIdle {
				bad("%s: waiter %s is idle", vm.name, v)
			}
		}
	}

	// Spinlock sanity.
	for _, vm := range w.vms {
		for i, l := range vm.locks {
			if l.holder != nil && l.granted != nil {
				bad("%s lock%d has both holder %s and reservation %s", vm.name, i, l.holder, l.granted)
			}
			for _, wt := range l.waiters {
				if wt.v.spinningOn != l {
					bad("%s lock%d waiter %s not marked spinning on it", vm.name, i, wt.v)
				}
				if wt.v == l.holder {
					bad("%s lock%d holder %s is also a waiter", vm.name, i, wt.v)
				}
			}
		}
	}
	return errs
}

// MustAudit panics with the first violation (test helper).
func (w *World) MustAudit() {
	if errs := w.Audit(); len(errs) > 0 {
		panic(fmt.Sprintf("vmm: audit failed: %v (and %d more)", errs[0], len(errs)-1))
	}
}
