package vmm

import (
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// SetRecording points each node's scheduling records (dispatches,
// preemptions, blocks, wakes, slice changes, policy swaps) at its
// registry in p; nil switches recording off. Attach before Start to
// capture the whole run. Recording is separate from SetTelemetry's
// metrics: p may be the world's telemetry plane or one that only
// records. Read the merged stream from p.Snapshot's Records, and how
// many older records each node's cap (Options.RecordCap) evicted from
// its DroppedRecords.
func (w *World) SetRecording(p *telemetry.Plane) {
	w.recording = p
	for _, n := range w.nodes {
		n.rec = nil
		if p != nil {
			n.rec = p.Node(n.id)
		}
	}
}

// Recording returns the plane passed to SetRecording (nil when the world
// records nothing).
func (w *World) Recording() *telemetry.Plane { return w.recording }

// trace records one scheduling event in the node's registry when the
// world is recording. Each node records into its own registry, so nodes
// on different workers never contend on shared state.
func (n *Node) trace(kind telemetry.SchedKind, pcpu int, v *VCPU, arg sim.Time) {
	r := n.rec
	if r == nil {
		return
	}
	e := telemetry.SchedEvent{At: n.eng.Now(), Kind: kind, Node: n.id, PCPU: pcpu, VCPU: -1, Arg: arg}
	if v != nil {
		e.VM = v.vm.name
		e.VCPU = v.idx
	}
	r.Record(e)
}

// TraceSlice lets schedulers record a slice decision for vm (no-op
// when the world neither records nor has a telemetry plane).
func (n *Node) TraceSlice(vm *VM, slice sim.Time) {
	if r := n.rec; r != nil {
		r.Record(telemetry.SchedEvent{At: n.eng.Now(), Kind: telemetry.SchedSlice,
			Node: n.id, PCPU: -1, VM: vm.name, VCPU: -1, Arg: slice})
	}
	if n.tel != nil {
		n.tel.reg.Point("vm_slice_change_ns",
			telemetry.Label{Node: n.id, VM: vm.name}, n.eng.Now(), float64(slice))
	}
}
