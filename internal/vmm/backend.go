package vmm

import (
	"atcsched/internal/diskmodel"
)

// Backend is a node's driver domain machinery: the netback transmit and
// receive queues, the blkback disk queue, and the dom0 VCPU processes
// that service them. A guest packet must traverse the sender's backend
// (netback tx), the physical fabric, and the receiver's backend (netback
// rx) before it reaches the destination VM — and each backend pass
// requires a dom0 VCPU to be scheduled, reproducing overhead sources 2
// and 3 of the paper's Figure 4 (sources 1 and 4 are the guest VCPUs' own
// scheduling waits).
type Backend struct {
	node  *Node
	tx    fifo[Packet]
	rx    fifo[Packet]
	diskQ fifo[diskReq]
	disk  *diskmodel.Disk

	txProcessed   uint64
	rxProcessed   uint64
	diskProcessed uint64
	// processing counts packets popped from a queue whose netback
	// compute has not finished yet (for conservation audits).
	processing int
	// wires recycles this node's wire records: forward takes from the
	// source node's list and arrival returns to the destination's, so a
	// list is only touched from its own node's engine.
	wires []*wire
}

// maxFreeWires caps a backend's wire recycle list, like netmodel's
// flight lists: incast traffic cannot pin unbounded memory.
const maxFreeWires = 64

// wire is one guest packet on the fabric, with its arrival callback
// bound once so a warm world forwards packets without allocating.
type wire struct {
	pkt Packet
	fn  func()
}

// arrive runs on the destination's engine when the packet lands. It
// recycles the record first, then delivers through the software bridge
// (a node-local packet) or posts to the destination's netback rx.
func (w *wire) arrive() {
	pkt := w.pkt
	b := pkt.Dst.node.backend
	if len(b.wires) < maxFreeWires {
		b.wires = append(b.wires, w)
	}
	if pkt.Src.node == b.node {
		pkt.Dst.deliver(pkt)
		return
	}
	b.enqueueRx(pkt)
}

type diskReq struct {
	v    *VCPU
	size int
	then func()
}

// Disk returns the node's disk model.
func (b *Backend) Disk() *diskmodel.Disk { return b.disk }

// TxProcessed returns netback transmit completions.
func (b *Backend) TxProcessed() uint64 { return b.txProcessed }

// RxProcessed returns netback receive completions.
func (b *Backend) RxProcessed() uint64 { return b.rxProcessed }

// DiskProcessed returns blkback submissions.
func (b *Backend) DiskProcessed() uint64 { return b.diskProcessed }

// QueueDepth returns the total backlog across the three queues.
func (b *Backend) QueueDepth() int { return b.tx.len() + b.rx.len() + b.diskQ.len() }

// enqueueTx posts a guest packet to netback and notifies dom0 (the event
// channel of Figure 4, steps 1–3).
func (b *Backend) enqueueTx(pkt Packet) {
	b.tx.push(pkt)
	b.notify()
}

// enqueueRx posts an arrived packet for delivery and notifies dom0
// (steps 7–10).
func (b *Backend) enqueueRx(pkt Packet) {
	b.rx.push(pkt)
	b.notify()
}

// enqueueDisk posts a guest disk request to blkback.
func (b *Backend) enqueueDisk(req diskReq) {
	b.diskQ.push(req)
	b.notify()
}

// notify wakes one blocked dom0 VCPU, mimicking an event-channel upcall.
func (b *Backend) notify() {
	for _, v := range b.node.dom0.vcpus {
		if v.state == StateBlocked {
			b.node.wake(v, true)
			return
		}
	}
}

// backendProc is the service loop running on each dom0 VCPU. It drains
// the netback/blkback queues, paying a per-item CPU cost, and blocks when
// idle. A dom0 VCPU runs one action at a time, so the packet in netback
// compute lives in the proc and the completions are bound once.
type backendProc struct {
	b      *Backend
	pkt    Packet
	txDone func()
	rxDone func()
}

func newBackendProc(b *Backend) *backendProc {
	bp := &backendProc{b: b}
	bp.txDone = func() {
		b.txProcessed++
		b.processing--
		b.forward(bp.pkt)
	}
	bp.rxDone = func() {
		b.rxProcessed++
		b.processing--
		pkt := bp.pkt
		pkt.Dst.deliver(pkt)
	}
	return bp
}

// Next implements Process.
func (bp *backendProc) Next() Action {
	b := bp.b
	cfg := &b.node.cfg
	switch {
	case b.tx.len() > 0:
		bp.pkt = b.tx.pop()
		b.processing++
		return Action{Kind: ActCompute, Work: cfg.BackendPacketCost, Then: bp.txDone}
	case b.rx.len() > 0:
		bp.pkt = b.rx.pop()
		b.processing++
		return Action{Kind: ActCompute, Work: cfg.BackendPacketCost, Then: bp.rxDone}
	case b.diskQ.len() > 0:
		req := b.diskQ.pop()
		return Action{Kind: ActCompute, Work: cfg.BackendDiskCost, Then: func() {
			b.diskProcessed++
			b.disk.Submit(req.size, func() {
				if req.then != nil {
					req.then()
				}
				req.v.vm.countIOEvent()
				b.node.wake(req.v, true)
			})
		}}
	default:
		return Action{Kind: ActBlock}
	}
}

// forward pushes a processed tx packet onto the wire (Figure 4 steps
// 5–6) or, for a node-local destination, delivers it through the software
// bridge directly: a node-local packet needs one backend pass, and the
// fabric models the memory-copy latency.
func (b *Backend) forward(pkt Packet) {
	var w *wire
	if n := len(b.wires); n > 0 {
		w = b.wires[n-1]
		b.wires = b.wires[:n-1]
	} else {
		w = &wire{}
		w.fn = w.arrive
	}
	w.pkt = pkt
	b.node.world.Fabric.Send(b.node.id, pkt.Dst.node.id, pkt.Size, w.fn)
}
