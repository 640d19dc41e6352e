package vmm

import (
	"strconv"

	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// nodeTel is one node's telemetry state: the node's registry plus the
// previous lifetime counter values, so period-boundary sampling can
// publish per-period deltas without consuming the scheduler-facing
// period accumulators (SpinMonitor.SamplePeriod and friends stay
// untouched — telemetry must never perturb the control loop's inputs).
type nodeTel struct {
	reg *telemetry.Registry
	lab telemetry.Label

	prevDispatch uint64
	prevPreempt  uint64
	prevBlock    uint64
	prevWake     uint64
	prevSteal    uint64

	perVM []vmTel // indexed like n.vms
	// tracks holds each VCPU's spin-span track name, "<vm>/<idx>",
	// indexed by VCPU.local and built on the VCPU's first episode.
	tracks []string
}

// vmTel tracks one VM's previous lifetime spin totals.
type vmTel struct {
	lab           telemetry.Label
	prevSpinSum   sim.Time
	prevSpinCount int64
}

// stealer is implemented by schedulers that count work stealing (the
// credit scheduler's Steal option).
type stealer interface{ Steals() uint64 }

// vmState returns guest i's sampling state, growing the slice lazily
// (VMs may be created after SetTelemetry).
func (t *nodeTel) vmState(n *Node, i int) *vmTel {
	for len(t.perVM) <= i {
		j := len(t.perVM)
		t.perVM = append(t.perVM, vmTel{lab: telemetry.Label{Node: n.id, VM: n.vms[j].name}})
	}
	return &t.perVM[i]
}

// SetTelemetry attaches a telemetry plane's metrics and spans to the
// world (nil detaches); scheduling records are switched separately by
// SetRecording. Attach before Start to capture the whole run. Each node
// publishes into its own plane registry so workers never contend on
// shared state. Telemetry is strictly observational: attaching a plane
// never changes a run's results.
func (w *World) SetTelemetry(p *telemetry.Plane) {
	w.telemetry = p
	for _, n := range w.nodes {
		if p == nil {
			n.tel = nil
			continue
		}
		n.tel = &nodeTel{reg: p.Node(n.id), lab: telemetry.Label{Node: n.id}}
	}
	// Worker labels for pprof attribution ride along with telemetry.
	for k := 0; p != nil && k < w.group.Workers(); k++ {
		w.group.SetWorkerLabels(k, "worker", strconv.Itoa(k))
	}
}

// TelemetryRegistry returns the node's telemetry registry (nil when the
// world has no plane attached) — the publish point for subsystems that
// hold a *Node, like the workload layer's BSP round spans.
func (n *Node) TelemetryRegistry() *telemetry.Registry {
	if n.tel == nil {
		return nil
	}
	return n.tel.reg
}

// sampleTelemetry publishes one period's worth of per-node and per-VM
// series. Called from the node's period timer (after the scheduler's
// accounting pass) only when a plane is attached.
func (n *Node) sampleTelemetry() {
	t := n.tel
	now := n.eng.Now()

	var disp uint64
	for _, p := range n.pcpus {
		disp += p.dispatches
	}
	t.reg.Point("node_dispatches", t.lab, now, float64(disp-t.prevDispatch))
	t.prevDispatch = disp
	t.reg.Point("node_preempts", t.lab, now, float64(n.preempts-t.prevPreempt))
	t.prevPreempt = n.preempts
	t.reg.Point("node_blocks", t.lab, now, float64(n.blocks-t.prevBlock))
	t.prevBlock = n.blocks
	t.reg.Point("node_wakes", t.lab, now, float64(n.wakes-t.prevWake))
	t.prevWake = n.wakes
	if st, ok := n.sched.(stealer); ok {
		s := st.Steals()
		if s < t.prevSteal {
			t.prevSteal = 0 // the counter restarted (policy swap)
		}
		t.reg.Point("node_steals", t.lab, now, float64(s-t.prevSteal))
		t.prevSteal = s
	}

	for i, vm := range n.vms {
		vt := t.vmState(n, i)
		sum, cnt := vm.SpinMon.LifetimeSum(), vm.SpinMon.LifetimeCount()
		var mean float64
		if dc := cnt - vt.prevSpinCount; dc > 0 {
			mean = float64(sum-vt.prevSpinSum) / float64(dc)
		}
		t.reg.Point("vm_spin_latency_ns", vt.lab, now, mean)
		vt.prevSpinSum, vt.prevSpinCount = sum, cnt
		if vm.curSlice > 0 {
			t.reg.Point("vm_slice_ns", vt.lab, now, float64(vm.curSlice))
		}
	}
}

// Telemetry returns the plane passed to SetTelemetry (nil when the
// world publishes no metrics).
func (w *World) Telemetry() *telemetry.Plane { return w.telemetry }

// FinalizeTelemetry publishes end-of-run totals (lifetime counters,
// engine group sync stats) into the attached plane. Call after the run; no-op
// without a plane.
func (w *World) FinalizeTelemetry() {
	if w.telemetry == nil {
		return
	}
	for _, n := range w.nodes {
		reg, lab := n.tel.reg, n.tel.lab
		var disp uint64
		for _, p := range n.pcpus {
			disp += p.dispatches
		}
		reg.SetCount("sched_dispatches", lab, disp)
		reg.SetCount("sched_preempts", lab, n.preempts)
		reg.SetCount("sched_blocks", lab, n.blocks)
		reg.SetCount("sched_wakes", lab, n.wakes)
		reg.SetCount("sched_ctx_switches", lab, n.CtxSwitches())
		reg.SetCount("sched_swaps", lab, n.swaps)
		if st, ok := n.sched.(stealer); ok {
			reg.SetCount("sched_steals", lab, st.Steals())
		}
		for i, vm := range n.vms {
			vlab := n.tel.vmState(n, i).lab
			reg.SetCount("vm_spin_acquisitions", vlab, uint64(vm.SpinMon.LifetimeCount()))
			reg.SetCount("vm_packets_sent", vlab, vm.sent)
			reg.SetCount("vm_packets_received", vlab, vm.received)
			reg.SetCount("vm_io_wakes", vlab, vm.ioWakes)
			reg.SetGauge("vm_spin_wait_total_ns", vlab, float64(vm.spinWaitTotal))
			reg.SetGauge("vm_run_time_ns", vlab, float64(vm.RunTime()))
		}
	}
	st := w.group.Stats()
	g, lab := w.telemetry.Global(), telemetry.GlobalLabel()
	g.SetCount("shard_sync_windows", lab, st.Windows)
	g.SetCount("shard_sync_segments", lab, st.Segments)
	g.SetCount("shard_sync_parallel_segments", lab, st.ParallelSegments)
	g.SetCount("shard_cross_posted", lab, st.CrossPosted)
	g.SetCount("shard_cross_injected", lab, st.CrossInjected)
}

// telSpin publishes one contended spin episode (histogram observation
// plus a span on the VCPU's lane). Called from the spinlock's
// finishAcquire with the lock's node telemetry already nil-checked.
func (t *nodeTel) telSpin(vm *VM, v *VCPU, start, end sim.Time) {
	lab := telemetry.Label{Node: vm.node.id, VM: vm.name}
	t.reg.Observe("spin_latency", lab, end-start)
	t.reg.AddSpan(telemetry.Span{
		Name:  "spin",
		Track: t.track(v),
		Node:  vm.node.id,
		Start: start,
		End:   end,
		Value: end - start,
	})
}

// track returns v's spin-span track name, building it once per VCPU.
func (t *nodeTel) track(v *VCPU) string {
	for len(t.tracks) <= v.local {
		t.tracks = append(t.tracks, "")
	}
	if t.tracks[v.local] == "" {
		t.tracks[v.local] = v.vm.name + "/" + strconv.Itoa(v.idx)
	}
	return t.tracks[v.local]
}
