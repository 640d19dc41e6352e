package vmm

import (
	"fmt"

	"atcsched/internal/cachemodel"
	"atcsched/internal/diskmodel"
	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// World is a whole simulated cluster: the engines, the physical fabric,
// and the nodes. Construct it, create VMs and install their processes,
// then call Start and drive it with RunUntil.
//
// Each node owns an engine; a sim.ShardGroup runs the nodes' engines in
// contiguous ranges over its worker goroutines (one by default), and all
// cross-node interaction flows through the group's lookahead barrier.
// The simulation semantics are keyed on node topology, never worker
// topology, so a scenario produces byte-identical results at every
// worker count. Drive and observe the world through its methods (Now,
// Executed, Pending, RunUntil, Stop, ...), or a node's own engine from
// inside its callbacks.
type World struct {
	// Eng is node 0's engine, kept for readers outside this module; it
	// sees node 0's events only. Use the World's methods instead.
	Eng    *sim.Engine
	Fabric *netmodel.Fabric
	nodes  []*Node
	vms    []*VM

	// group runs and synchronizes the per-node engines.
	group *sim.ShardGroup

	nextVMID   int
	nextVCPUID int
	started    bool
	recording  *telemetry.Plane
	telemetry  *telemetry.Plane

	// slowFn, when set, reports the execution-time multiplier (>= 1) in
	// force on a node at an instant; the PCPUs stretch every compute and
	// burn segment started while it is > 1 (fault plane: stragglers).
	slowFn func(node int, now sim.Time) float64
	// monitorTap, when set, filters every spin-monitor sample taken via
	// VM.SampleSpinPeriod (fault plane: dropouts, noise, stale reads).
	monitorTap func(vm *VM) MonitorVerdict
}

// SetSlowdown installs (or, with nil, removes) the per-node execution
// slowdown hook. fn must be deterministic in (node, now); factors below
// 1 are treated as 1. Segments already in flight keep the factor they
// started with — the hook is sampled at segment start, so its
// granularity is one slice at worst. The hook is called concurrently
// from different workers and must not share mutable state across nodes.
func (w *World) SetSlowdown(fn func(node int, now sim.Time) float64) { w.slowFn = fn }

// SetMonitorTap installs (or, with nil, removes) the monitoring-path
// fault hook consulted by VM.SampleSpinPeriod. The caveat of SetSlowdown
// applies: any mutable state must be partitioned by node.
func (w *World) SetMonitorTap(fn func(vm *VM) MonitorVerdict) { w.monitorTap = fn }

// NewWorld builds a 1-worker world of nNodes identical nodes, each with
// its own scheduler instance produced by factory.
func NewWorld(nNodes int, ncfg NodeConfig, netCfg netmodel.Config, factory SchedulerFactory) (*World, error) {
	if factory == nil {
		return nil, fmt.Errorf("vmm: nil scheduler factory")
	}
	return NewHeteroWorld(nNodes, 1, ncfg, netCfg, func(int) SchedulerFactory { return factory })
}

// NewHeteroWorld builds nNodes nodes whose schedulers may differ —
// factoryFor(i) supplies the factory for node i, so a cluster can run
// one policy on most nodes and another on the rest. Each node gets its
// own engine; `shards` worker goroutines run the engines in contiguous
// node ranges, synchronized at the network lookahead (netCfg.WireLatency,
// which must be positive). Worker counts are clamped to [1, nNodes], so
// 0 means 1.
func NewHeteroWorld(nNodes, shards int, ncfg NodeConfig, netCfg netmodel.Config, factoryFor func(node int) SchedulerFactory) (*World, error) {
	if nNodes <= 0 {
		return nil, fmt.Errorf("vmm: need at least one node, got %d", nNodes)
	}
	if netCfg.WireLatency <= 0 {
		return nil, fmt.Errorf("vmm: world needs a positive wire latency for lookahead, got %v", netCfg.WireLatency)
	}
	if err := ncfg.validate(); err != nil {
		return nil, err
	}
	if factoryFor == nil {
		return nil, fmt.Errorf("vmm: nil scheduler factory function")
	}
	w := &World{group: sim.NewShardGroup(nNodes, shards, netCfg.WireLatency)}
	engines := make([]*sim.Engine, nNodes)
	for i := range engines {
		engines[i] = w.group.Engine(i)
	}
	w.Eng = engines[0]
	w.Fabric = netmodel.NewSharded(engines, netCfg, w.group.Post)
	for i := 0; i < nNodes; i++ {
		n := &Node{world: w, id: i, cfg: ncfg, eng: engines[i]}
		for j := 0; j < ncfg.PCPUs; j++ {
			p := &PCPU{
				node:  n,
				idx:   j,
				cache: cachemodel.New(ncfg.Cache),
			}
			p.initFns()
			n.pcpus = append(n.pcpus, p)
		}
		n.backend = &Backend{node: n, disk: diskmodel.New(n.eng, ncfg.Disk)}
		n.dom0 = n.newVM(fmt.Sprintf("dom0-%d", i), ClassDom0, ncfg.Dom0VCPUs, ncfg.Dom0Footprint, ncfg.Dom0ColdRate)
		factory := factoryFor(i)
		if factory == nil {
			return nil, fmt.Errorf("vmm: nil scheduler factory for node %d", i)
		}
		n.sched = factory(n)
		if n.sched == nil {
			return nil, fmt.Errorf("vmm: factory returned nil scheduler for node %d", i)
		}
		w.nodes = append(w.nodes, n)
	}
	return w, nil
}

// MustNewWorld is NewWorld that panics on error (tests, examples).
func MustNewWorld(nNodes int, ncfg NodeConfig, netCfg netmodel.Config, factory SchedulerFactory) *World {
	w, err := NewWorld(nNodes, ncfg, netCfg, factory)
	if err != nil {
		panic(err)
	}
	return w
}

// Nodes returns the world's nodes (do not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

// Node returns node i.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// VMs returns every VM in the world, dom0s included.
func (w *World) VMs() []*VM { return w.vms }

// GuestVMs returns every guest VM in the world.
func (w *World) GuestVMs() []*VM {
	var out []*VM
	for _, vm := range w.vms {
		if vm.class != ClassDom0 {
			out = append(out, vm)
		}
	}
	return out
}

// Start arms timers and performs the initial dispatch on every node. It
// must be called exactly once, after all VMs and processes are set up.
func (w *World) Start() {
	if w.started {
		panic("vmm: World.Start called twice")
	}
	w.started = true
	for _, n := range w.nodes {
		n.start()
	}
}

// Now returns the group clock: the virtual time every node has reached.
func (w *World) Now() sim.Time { return w.group.Now() }

// Executed returns the total number of events fired across all engines.
func (w *World) Executed() uint64 { return w.group.Executed() }

// Pending returns the number of events queued across all engines plus
// the cross-node events not yet delivered to one.
func (w *World) Pending() int { return w.group.Pending() }

// SyncStats returns the engine group's synchronization and work/span
// counters. Call between RunUntil calls.
func (w *World) SyncStats() sim.SyncStats { return w.group.Stats() }

// RunUntil drives the simulation to virtual time t, or to where a Stop
// lands, and reports whether one landed. The stop is consumed: the next
// RunUntil runs on. With t <= Now() it does nothing: unlike
// sim.Engine.RunUntil it does not fire events due at exactly Now(), so
// RunUntil(0) right after Start dispatches nothing. Those events fire on
// the next RunUntil to a later time.
func (w *World) RunUntil(t sim.Time) bool { return w.group.RunUntil(t) }

// Stop asks the running RunUntil to return early (e.g., when the
// experiment's completion condition is met from inside a callback). The
// stop lands at the end of the running segment — the window end or the
// RunUntil target, whichever comes first — a point that is a pure
// function of virtual time, so stopped runs stay deterministic.
func (w *World) Stop() { w.group.RequestStop() }

// CrossNodeSignal runs fn on dst's engine, attributed to src. On the
// same node it is an immediate deferred event; across nodes it travels
// through the group barrier with one network lookahead of delay — the
// same contract as a wire message, which is what such signals model
// (workload completion notifications, coordination RPCs). Using it for
// ALL cross-node signalling, even between nodes on one worker, is what
// keeps results independent of the worker count.
func (w *World) CrossNodeSignal(src, dst *Node, fn func()) {
	if src == dst {
		dst.eng.Defer(fn)
		return
	}
	w.group.Post(src.id, dst.id, src.eng.Now()+w.group.Lookahead(), fn)
}
