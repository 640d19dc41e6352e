package fault

import (
	"fmt"

	"atcsched/internal/rng"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
)

// faultStream is the base rng stream id reserved for the fault plane
// (node i's loss and monitor draws use stream faultStream+1+i), so its
// draws are independent of the workload generators sharing the same
// experiment seed.
const faultStream = 0xfa017

// actuationStream is the base rng stream id of the per-node actuation
// draws (stream actuationStream+node), far from the per-node
// monitor/loss streams at faultStream+1+node so the two never meet.
const actuationStream = faultStream << 24

// Plan is a Spec compiled against a seed: the live fault plane. Attach
// installs its hooks on a world; the plan then drives every injection
// from the world's virtual clock and its own rng streams, and tallies
// what it did in a Report.
type Plan struct {
	seed    uint64
	windows []window
	// rep holds the tallies no node owns (daemon-dark periods).
	rep Report

	// nodes partitions every draw and tally by node. Hooks fire
	// concurrently from different shards, and fleet shards actuate nodes
	// concurrently, so a shared rng stream would make draw order depend on
	// wall-clock interleaving. Each node draws from its own streams
	// derived from (seed, node) and tallies into its own report, which is
	// a pure function of that node's virtual timeline — so the summed
	// Report is byte-identical at every shard count. Attach sizes it for
	// the world's nodes, so concurrent hooks never grow it.
	nodes []nodeFaults
}

// nodeFaults is one node's partition of a plan's draws and tallies.
type nodeFaults struct {
	draw *rng.Source // loss and monitor draws
	act  *rng.Source // actuator-fail draws
	rep  Report
}

// Report tallies the injections a plan performed. All counters advance
// on virtual-time-driven events only, so identical runs produce
// identical reports.
type Report struct {
	// PacketsLost counts wire transmissions the loss hook discarded
	// (each is retransmitted by the fabric after its timeout).
	PacketsLost uint64
	// SamplesDropped/SamplesStaled/SamplesNoised count monitor-path
	// injections.
	SamplesDropped uint64
	SamplesStaled  uint64
	SamplesNoised  uint64
	// ActuationsFailed counts slice applications the plan rejected.
	ActuationsFailed uint64
	// DaemonDarkPeriods counts control periods that passed while a
	// daemon-crash window held the control plane down.
	DaemonDarkPeriods uint64
}

// String renders the report deterministically (the second half of the
// byte-identical determinism contract). DaemonDarkPeriods is rendered
// only when nonzero so every pre-existing report fingerprint is
// unchanged.
func (r Report) String() string {
	s := fmt.Sprintf("faults: lost=%d dropped=%d staled=%d noised=%d actfail=%d",
		r.PacketsLost, r.SamplesDropped, r.SamplesStaled, r.SamplesNoised, r.ActuationsFailed)
	if r.DaemonDarkPeriods != 0 {
		s += fmt.Sprintf(" dark=%d", r.DaemonDarkPeriods)
	}
	return s
}

// Compile validates the spec and binds it to a seed. fallbackSeed is
// used when the spec does not pin its own Seed — pass the run's cluster
// seed so fault draws stay reproducible per run without extra knobs.
func Compile(spec *Spec, fallbackSeed uint64) (*Plan, error) {
	if spec == nil {
		return nil, nil
	}
	if err := spec.Validate(0); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = fallbackSeed
	}
	p := &Plan{seed: seed}
	for _, w := range spec.Windows {
		p.windows = append(p.windows, compileWindow(w))
	}
	return p, nil
}

// Attach installs the plan's hooks on w. Only the hooks a window
// actually needs are installed, so a plan with (say) only monitor
// faults leaves the compute and network paths untouched. It validates
// node scopes against the world's size.
func (p *Plan) Attach(w *vmm.World) error {
	if p == nil {
		return nil
	}
	var slow, net, bw, mon bool
	nodes := w.Fabric.Nodes()
	p.node(nodes - 1)
	for _, win := range p.windows {
		for n := range win.nodes {
			if n >= nodes {
				return fmt.Errorf("fault: window scopes node %d but world has %d nodes", n, nodes)
			}
		}
		switch win.kind {
		case PCPUSlow, PCPUFreeze:
			slow = true
		case PacketLoss:
			net = true
		case Bandwidth:
			bw = true
		case MonitorDrop, MonitorNoise, MonitorStale:
			mon = true
		}
	}
	if slow {
		w.SetSlowdown(p.slowdown)
	}
	if net {
		w.Fabric.SetLoss(p.lose)
	}
	if bw {
		w.Fabric.SetBandwidth(p.bandwidth)
	}
	if mon {
		w.SetMonitorTap(p.monitorTap)
	}
	return nil
}

// Report returns a snapshot of the injection tallies, summed over the
// per-node partitions (call it at a barrier, e.g. after RunUntil
// returns).
func (p *Plan) Report() Report {
	if p == nil {
		return Report{}
	}
	r := p.rep
	for i := range p.nodes {
		nr := &p.nodes[i].rep
		r.PacketsLost += nr.PacketsLost
		r.SamplesDropped += nr.SamplesDropped
		r.SamplesStaled += nr.SamplesStaled
		r.SamplesNoised += nr.SamplesNoised
		r.ActuationsFailed += nr.ActuationsFailed
	}
	return r
}

// DaemonDown reports whether a daemon-crash window holds the control
// plane down at virtual time now. Nil-safe.
func (p *Plan) DaemonDown(now sim.Time) bool {
	if p == nil {
		return false
	}
	for i := range p.windows {
		w := &p.windows[i]
		if w.kind == DaemonCrash && w.active(now) {
			return true
		}
	}
	return false
}

// CountDarkPeriod tallies one control period lost to a daemon-crash
// window. Nil-safe; call from the control loop's driver, which is the
// only party that knows its period grid.
func (p *Plan) CountDarkPeriod() {
	if p == nil {
		return
	}
	p.rep.DaemonDarkPeriods++
}

// PublishTelemetry renders the plan into reg (usually the plane's
// global registry): each fault window becomes a span on the "faults"
// track, and the report counters become telemetry counters. Call after
// the run (with the final report) — publishing is observation only and
// never feeds back into injection.
func (p *Plan) PublishTelemetry(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	lab := telemetry.GlobalLabel()
	for i := range p.windows {
		w := &p.windows[i]
		reg.AddSpan(telemetry.Span{
			Name:  "fault:" + string(w.kind),
			Track: "faults",
			Node:  -1,
			Start: w.start,
			End:   w.end,
		})
	}
	r := p.Report()
	reg.SetCount("fault_packets_lost", lab, r.PacketsLost)
	reg.SetCount("fault_samples_dropped", lab, r.SamplesDropped)
	reg.SetCount("fault_samples_staled", lab, r.SamplesStaled)
	reg.SetCount("fault_samples_noised", lab, r.SamplesNoised)
	reg.SetCount("fault_actuations_failed", lab, r.ActuationsFailed)
	if r.DaemonDarkPeriods > 0 {
		reg.SetCount("fault_daemon_dark_periods", lab, r.DaemonDarkPeriods)
	}
}

// slowdown is the vmm compute-path hook: the strongest slow/freeze
// factor covering the node right now (1 = full speed).
func (p *Plan) slowdown(node int, now sim.Time) float64 {
	f := 1.0
	for i := range p.windows {
		w := &p.windows[i]
		if (w.kind == PCPUSlow || w.kind == PCPUFreeze) && w.active(now) && w.onNode(node) && w.severity > f {
			f = w.severity
		}
	}
	return f
}

// lose is the fabric's loss hook: drop a transmission leaving src with
// the strongest active loss probability.
func (p *Plan) lose(src, dst int, now sim.Time) bool {
	prob := 0.0
	for i := range p.windows {
		w := &p.windows[i]
		if w.kind == PacketLoss && w.active(now) && w.onNode(src) && w.severity > prob {
			prob = w.severity
		}
	}
	if prob <= 0 {
		return false
	}
	nf := p.node(src)
	if nf.draw.Float64() >= prob {
		return false
	}
	nf.rep.PacketsLost++
	return true
}

// bandwidth is the fabric's line-rate hook: the tightest remaining
// fraction covering the node (1 = full rate).
func (p *Plan) bandwidth(node int, now sim.Time) float64 {
	f := 1.0
	for i := range p.windows {
		w := &p.windows[i]
		if w.kind == Bandwidth && w.active(now) && w.onNode(node) && w.severity < f {
			f = w.severity
		}
	}
	return f
}

// monitorTap sits between the spin monitor and its consumers: per
// sample it may drop the reading, re-serve the previous one, or add
// noise. Drop wins over stale wins over noise when windows overlap.
func (p *Plan) monitorTap(vm *vmm.VM) vmm.MonitorVerdict {
	now := vm.Node().Engine().Now()
	nf := p.node(vm.Node().ID())
	draw, rep := nf.draw, &nf.rep
	var v vmm.MonitorVerdict
	for i := range p.windows {
		w := &p.windows[i]
		if !w.active(now) || !w.onVM(vm.ID()) {
			continue
		}
		switch w.kind {
		case MonitorDrop:
			if !v.Drop && draw.Float64() < w.severity {
				v.Drop = true
			}
		case MonitorStale:
			if !v.Stale && draw.Float64() < w.severity {
				v.Stale = true
			}
		case MonitorNoise:
			v.Noise += sim.Time(draw.Float64() * w.severity * float64(sim.Millisecond))
		}
	}
	switch {
	case v.Drop:
		rep.SamplesDropped++
	case v.Stale:
		rep.SamplesStaled++
	case v.Noise != 0:
		rep.SamplesNoised++
	}
	return v
}

// FailActuation reports whether a slice application on node at virtual
// time now should fail, per the active actuator-fail windows. It draws
// from node's own stream, so calls for different nodes may run
// concurrently once the plan is attached.
func (p *Plan) FailActuation(node int, now sim.Time) error {
	if p == nil {
		return nil
	}
	prob := 0.0
	for i := range p.windows {
		w := &p.windows[i]
		if w.kind == ActuatorFail && w.active(now) && w.severity > prob {
			prob = w.severity
		}
	}
	if prob <= 0 {
		return nil
	}
	nf := p.node(node)
	if nf.act.Float64() >= prob {
		return nil
	}
	nf.rep.ActuationsFailed++
	return fmt.Errorf("fault: injected actuation failure on node %d at %v", node, now)
}

// node returns node's partition, growing the table up to node (only an
// unattached plan, used from one goroutine, ever grows it after Attach).
func (p *Plan) node(node int) *nodeFaults {
	for len(p.nodes) <= node {
		i := uint64(len(p.nodes))
		p.nodes = append(p.nodes, nodeFaults{
			draw: rng.NewStream(p.seed, faultStream+1+i),
			act:  rng.NewStream(p.seed, actuationStream+i),
		})
	}
	return &p.nodes[node]
}
