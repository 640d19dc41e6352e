package vmm

import (
	"strings"
	"testing"

	"atcsched/internal/sim"
)

// TestMailboxFIFOPerTag: takeMail removes the first packet of the asked
// tag and leaves every other packet where it was.
func TestMailboxFIFOPerTag(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("a", ClassParallel, 2, 0, 1)
	for i, tag := range []int{5, 6, 5, 7, 6} {
		vm.deliver(Packet{Dst: vm, DstProc: 1, Tag: tag, Size: i})
	}
	if vm.mailReady(0, 5) || !vm.mailReady(1, 7) || vm.mailReady(1, 8) || vm.mailReady(9, 5) {
		t.Fatal("mailReady disagrees with the delivered packets")
	}
	take := func(tag, wantSize int) {
		t.Helper()
		if got := vm.takeMail(1, tag); got.Size != wantSize {
			t.Fatalf("takeMail(tag %d) returned packet %d, want %d", tag, got.Size, wantSize)
		}
	}
	take(6, 1)
	take(5, 0)
	take(5, 2)
	take(6, 4)
	take(7, 3)
	if vm.mailReady(1, 5) || vm.mailReady(1, 6) || vm.mailReady(1, 7) {
		t.Fatal("mailbox not empty after taking every packet")
	}
	defer func() {
		if recover() == nil {
			t.Error("takeMail on an empty mailbox did not panic")
		}
	}()
	vm.takeMail(1, 5)
}

// TestMailboxOneReceiver: a process runs one receive at a time, so a
// second receiver, or a waiter switching tags, is a bug.
func TestMailboxOneReceiver(t *testing.T) {
	w := testWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("a", ClassParallel, 2, 0, 1)
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), want) {
				t.Errorf("%s: panic %v, want one mentioning %q", what, r, want)
			}
		}()
		f()
	}
	vm.waitMail(0, 3, vm.VCPU(0))
	vm.waitMail(0, 3, vm.VCPU(0)) // re-registering the same receive is fine
	mustPanic("second receiver", "two receivers", func() { vm.waitMail(0, 3, vm.VCPU(1)) })
	mustPanic("tag switch", "re-registered", func() { vm.waitMail(0, 4, vm.VCPU(0)) })
}

// mailSlots returns the packet slots the VM's mailboxes hold on to,
// queued or spare.
func (vm *VM) mailSlots() int {
	n := 0
	for i := range vm.mail {
		n += cap(vm.mail[i].pkts)
	}
	return n
}

// ringProc is one round of a two-VM BSP ring: compute, send to the peer
// VM's process of the same rank, receive the peer's message. Tags are
// unique per (round, source VM), as in workload.BSPApp.
func ringProc(peer *VM, vmIdx, rank, round int) Process {
	return &seqProc{actions: []Action{
		Compute(100 * sim.Microsecond),
		Send(peer, rank, round*2+vmIdx, 1024),
		RecvPoll(round*2+1-vmIdx, 50*sim.Microsecond),
	}}
}

// TestMailboxStorageBounded: a BSP world running many rounds of
// unique-tag messages keeps its mailbox storage bounded by a constant
// multiple of the process count; it must not grow with the rounds.
func TestMailboxStorageBounded(t *testing.T) {
	w := testWorld(t, 2, 2, 30*sim.Millisecond)
	vms := []*VM{
		w.Node(0).NewVM("a", ClassParallel, 2, 0, 1),
		w.Node(1).NewVM("b", ClassParallel, 2, 0, 1),
	}
	procs := 0
	for vmIdx, vm := range vms {
		peer := vms[1-vmIdx]
		for rank, v := range vm.VCPUs() {
			procs++
			round := 0
			v.SetProcess(ringProc(peer, vmIdx, rank, round), func(*VCPU) Process {
				round++
				return ringProc(peer, vmIdx, rank, round)
			})
		}
	}
	w.Start()
	slots := func() int {
		n := 0
		for _, vm := range vms {
			n += vm.mailSlots()
		}
		return n
	}
	for _, until := range []sim.Time{100 * sim.Millisecond, sim.Second, 4 * sim.Second} {
		w.RunUntil(until)
		rounds := vms[0].VCPU(0).Rounds()
		if got, bound := slots(), 4*procs; got > bound {
			t.Fatalf("after %d rounds the mailboxes hold %d packet slots, want <= %d (4 per process)", rounds, got, bound)
		}
		w.MustAudit()
	}
	if r := vms[0].VCPU(0).Rounds(); r < 1000 {
		t.Fatalf("only %d rounds completed; the ring stalled", r)
	}
}
