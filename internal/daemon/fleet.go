package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// NodeBatch is one fleet node's telemetry for one control period.
type NodeBatch struct {
	Node    int
	Samples []VMSample
}

// FleetSource provides one period's batches for every live node (a node
// in blackout simply contributes no batch), in node-ID order. io.EOF
// ends the control loop cleanly. The fleet is done with the returned
// batches when Step returns, so a source may reuse them.
type FleetSource interface {
	SampleFleet() ([]NodeBatch, error)
}

// FleetActuator applies one node's slices. Nodes on different shards
// are actuated concurrently. The fleet reuses the slices map for the
// node's next period, updating only the entries that change, so
// ApplyNode must neither modify it nor keep it after returning.
type FleetActuator interface {
	ApplyNode(node int, slices map[int]sim.Time) error
}

// FleetOptions size the fleet control plane.
type FleetOptions struct {
	// Node carries the per-node hardened-loop options (retry/stale/
	// giveup), applied to every fleet node.
	Node Options
	// Shards is the number of goroutines a period's nodes are spread
	// over (hash(node)→shard; default 1).
	Shards int
	// MaxNodes, when positive, bounds the node IDs the fleet accepts:
	// batches and snapshot entries for nodes outside [0,MaxNodes) are
	// counted and ignored rather than growing state without bound.
	MaxNodes int
}

// sanitize fills defaults.
func (o *FleetOptions) sanitize() {
	o.Node.sanitize()
	if o.Shards < 1 {
		o.Shards = 1
	}
}

// fleetShardSalt seeds the node→shard hash (splitmix64 via runner.Seed)
// so shard assignment is deterministic across runs and restores.
const fleetShardSalt = 0xa7c15f1ee7

// fleetShard owns a disjoint subset of nodes. mu guards nodes and every
// nodeLoop in it: the shard's goroutine holds it for decide and commit
// and releases it around ApplyNode and backoff waits, so Table/Summary
// readers never wait on a slow actuator.
type fleetShard struct {
	mu    sync.Mutex
	nodes []nodeEntry // sorted by node ID

	// work lists the current period's batches on this shard as indices
	// into Step's batch slice (Step scratch).
	work []int
}

// nodeEntry is one row of a shard's node table.
type nodeEntry struct {
	id   int
	loop *nodeLoop
}

// find returns the index of node's row, or the index it belongs at,
// and whether the row is there.
func (sh *fleetShard) find(node int) (int, bool) {
	return slices.BinarySearchFunc(sh.nodes, node, func(e nodeEntry, id int) int { return cmp.Compare(e.id, id) })
}

// A node-period's result, spelled as the telemetry counter it bumps.
const (
	decisionApply  = "daemon_decision_apply"
	decisionDrop   = "daemon_decision_drop"
	decisionGiveup = "daemon_decision_giveup"
)

// outcome is one batch's result in the current period.
type outcome struct {
	node   int
	slices map[int]sim.Time
	result string // a decision* constant; "" for a rejected batch
	err    error
}

// Fleet is the control plane: one nodeLoop per node, sharded across
// goroutines for the length of a period. Each Step samples every node,
// runs decide → applyWithRetry → commit for each shard's nodes in
// node-ID order on one goroutine per shard, and joins them, so the
// control state after a Step is the same at any shard count. A 1-node
// fleet is the single-machine daemon.
type Fleet struct {
	cfg    core.Config
	opts   FleetOptions
	src    FleetSource
	act    FleetActuator
	shards []*fleetShard
	outs   []outcome      // Step scratch, one per batch
	join   sync.WaitGroup // Step's wait for its shard goroutines
	err    error          // sticky terminal error (a node gave up)

	stop     atomic.Bool
	stopc    chan struct{}
	stopOnce sync.Once
	closed   atomic.Bool

	periods        atomic.Uint64 // completed fleet Steps (the snapshot cursor)
	decisions      atomic.Uint64 // node-periods whose actuation landed
	rejected       atomic.Uint64 // batches outside [0,MaxNodes)
	restoredNodes  atomic.Uint64
	skippedRestore atomic.Uint64

	tel      *telemetry.Registry
	telClock func() sim.Time
	vmLabels map[int]string // publish's cache of VM labels
}

// NewFleet builds the fleet control plane. It starts no goroutines. src
// may be nil for a fleet that only restores and snapshots state; Step
// then errors. cfg zero-value panics (use core.DefaultConfig()).
func NewFleet(cfg core.Config, src FleetSource, act FleetActuator, opts FleetOptions) *Fleet {
	if act == nil {
		panic("daemon: nil fleet actuator")
	}
	opts.sanitize()
	f := &Fleet{
		cfg:      cfg,
		opts:     opts,
		src:      src,
		act:      act,
		shards:   make([]*fleetShard, opts.Shards),
		stopc:    make(chan struct{}),
		vmLabels: make(map[int]string),
	}
	for i := range f.shards {
		f.shards[i] = new(fleetShard)
	}
	return f
}

// shardOf hashes a node ID onto its shard.
func (f *Fleet) shardOf(node int) *fleetShard {
	if len(f.shards) == 1 {
		return f.shards[0]
	}
	return f.shards[runner.Seed(fleetShardSalt, node)%uint64(len(f.shards))]
}

// SetTelemetry attaches a registry the fleet publishes into. Per
// node-period: a "decision" span on the node, a
// daemon_decision_{apply,drop,giveup} count, and a daemon_slice_ns point
// per VM (VM IDs are cluster-unique, so the series carry only the VM
// label); per period, the daemon_* fault counters summed over the fleet;
// and a span per Restore. clock supplies the sim-time axis (e.g.
// SimBackend.Now); when nil, periods sit on a 30 ms grid.
func (f *Fleet) SetTelemetry(reg *telemetry.Registry, clock func() sim.Time) {
	f.tel = reg
	f.telClock = clock
}

func (f *Fleet) telNow() sim.Time {
	if f.telClock != nil {
		return f.telClock()
	}
	return sim.Time(f.periods.Load()) * 30 * sim.Millisecond
}

// Step runs one fleet-wide control period: sample every node, group the
// batches by shard, run each shard's nodes on its own goroutine, join.
// It returns io.EOF when the source is exhausted. When a node gives up,
// the period still completes for every other node and Step returns the
// lowest such node's error, then keeps returning it.
func (f *Fleet) Step() error {
	if f.err != nil {
		return f.err
	}
	if f.closed.Load() {
		return errors.New("daemon: fleet closed")
	}
	if f.src == nil {
		return errors.New("daemon: fleet has no source")
	}
	var start sim.Time
	if f.tel != nil {
		start = f.telNow()
	}
	batches, err := f.src.SampleFleet()
	if err != nil {
		return err
	}

	f.outs = f.outs[:0]
	for _, sh := range f.shards {
		sh.work = sh.work[:0]
	}
	for i, b := range batches {
		f.outs = append(f.outs, outcome{node: b.Node})
		if f.opts.MaxNodes > 0 && (b.Node < 0 || b.Node >= f.opts.MaxNodes) {
			f.rejected.Add(1)
			continue
		}
		sh := f.shardOf(b.Node)
		sh.work = append(sh.work, i)
	}
	for _, sh := range f.shards[1:] {
		if len(sh.work) > 0 {
			f.join.Add(1)
			go func() {
				defer f.join.Done()
				f.runShard(sh, batches)
			}()
		}
	}
	f.runShard(f.shards[0], batches)
	f.join.Wait()
	f.periods.Add(1)

	var end sim.Time
	if f.tel != nil {
		end = max(f.telNow(), start)
	}
	var applied uint64
	var failed *outcome
	for i := range f.outs {
		o := &f.outs[i]
		switch o.result {
		case "":
			continue
		case decisionApply:
			applied++
		case decisionGiveup:
			if failed == nil || o.node < failed.node {
				failed = o
			}
		}
		if f.tel != nil {
			f.publish(o, start, end)
		}
	}
	f.decisions.Add(applied)
	if f.tel != nil {
		st, lab := f.Stats(), telemetry.GlobalLabel()
		f.tel.SetCount("daemon_retries", lab, st.Retries)
		f.tel.SetCount("daemon_dropped_periods", lab, st.DroppedPeriods)
		f.tel.SetCount("daemon_stale_samples", lab, st.StaleSamples)
		f.tel.SetCount("daemon_degraded", lab, st.Degraded)
	}
	if failed != nil {
		f.err = failed.err
	}
	return f.err
}

// runShard drives one period for a shard's nodes in batch (node-ID)
// order, recording each batch's outcome in f.outs. A cursor walks the
// node table alongside the batches, so a node's row is usually the one
// after the last; a miss binary-searches, and inserts a new node's row.
func (f *Fleet) runShard(sh *fleetShard, batches []NodeBatch) {
	now := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := 0
	for _, i := range sh.work {
		node := batches[i].Node
		if cur >= len(sh.nodes) || sh.nodes[cur].id != node {
			var found bool
			if cur, found = sh.find(node); !found {
				sh.nodes = slices.Insert(sh.nodes, cur, nodeEntry{id: node, loop: newNodeLoop(f.cfg, f.opts.Node)})
			}
		}
		fn := sh.nodes[cur].loop
		cur++
		slices := fn.ctl.Decide(batches[i].Samples, false)
		committed, err := fn.applyWithRetry(slices, func(s map[int]sim.Time) error {
			sh.mu.Unlock()
			defer sh.mu.Lock()
			return f.act.ApplyNode(node, s)
		}, func(dt time.Duration) {
			sh.mu.Unlock()
			defer sh.mu.Lock()
			f.wait(dt)
		})
		o := &f.outs[i]
		o.slices = slices
		switch {
		case err != nil:
			o.result, o.err = decisionGiveup, fmt.Errorf("fleet node %d: %w", node, err)
		case committed:
			fn.commit()
			fn.lastCommit = now
			o.result = decisionApply
		default:
			o.result = decisionDrop
		}
	}
}

// publish records one node-period's decision in the telemetry registry.
func (f *Fleet) publish(o *outcome, start, end sim.Time) {
	f.tel.AddSpan(telemetry.Span{
		Name: "decision", Track: "daemon", Node: o.node, Start: start, End: end,
	})
	f.tel.Add(o.result, telemetry.GlobalLabel(), 1)
	for id, sl := range o.slices {
		f.tel.Point("daemon_slice_ns", telemetry.Label{Node: -1, VM: f.vmLabel(id)}, end, float64(sl))
	}
}

// vmLabel returns VM id's telemetry label, "vm<id>", made once per VM.
// Only Step's goroutine calls it, after the shards have joined.
func (f *Fleet) vmLabel(id int) string {
	lab, ok := f.vmLabels[id]
	if !ok {
		lab = fmt.Sprintf("vm%d", id)
		f.vmLabels[id] = lab
	}
	return lab
}

// wait performs one retry backoff: wall clock, cut short by Stop (the
// remaining attempts still run — stop drains, it does not abandon).
func (f *Fleet) wait(dt time.Duration) {
	if f.opts.Node.Sleep != nil {
		f.opts.Node.Sleep(dt)
		return
	}
	t := time.NewTimer(dt)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.stopc:
	}
}

// Run executes Step until io.EOF (clean end), a terminal error, or
// Stop. A stop arriving mid-period lets the period's actuations finish
// before Run returns.
func (f *Fleet) Run() error {
	for !f.stop.Load() {
		if err := f.Step(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// Stop asks Run to return at the next period boundary and wakes any
// in-progress backoff waits so the in-flight actuations drain
// immediately. Safe from any goroutine.
func (f *Fleet) Stop() {
	f.stop.Store(true)
	f.stopOnce.Do(func() { close(f.stopc) })
}

// Close retires the fleet: Step fails afterwards. The fleet holds no
// goroutines between Steps, so there is nothing else to release.
func (f *Fleet) Close() { f.closed.Store(true) }

// Periods returns the number of completed fleet control periods (the
// snapshot queue cursor).
func (f *Fleet) Periods() uint64 { return f.periods.Load() }

// Decisions returns the number of node-periods whose actuation landed.
func (f *Fleet) Decisions() uint64 { return f.decisions.Load() }

// Overflow is always 0: every Step decides and actuates every batch it
// samples, so no decision is ever queued behind another.
func (f *Fleet) Overflow() uint64 { return 0 }

// Rejected returns the number of batches ignored for being outside
// MaxNodes.
func (f *Fleet) Rejected() uint64 { return f.rejected.Load() }

// RestoredNodes and SkippedRestoreNodes count Restore's accepted and
// ignored node entries.
func (f *Fleet) RestoredNodes() uint64       { return f.restoredNodes.Load() }
func (f *Fleet) SkippedRestoreNodes() uint64 { return f.skippedRestore.Load() }

// eachNode calls fn for every node under its shard's lock, shard by
// shard, each shard's in node order.
func (f *Fleet) eachNode(fn func(id int, n *nodeLoop)) {
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, e := range sh.nodes {
			fn(e.id, e.loop)
		}
		sh.mu.Unlock()
	}
}

// Nodes lists every node the fleet holds state for, sorted.
func (f *Fleet) Nodes() []int {
	var ids []int
	f.eachNode(func(id int, _ *nodeLoop) { ids = append(ids, id) })
	sort.Ints(ids)
	return ids
}

// Stats aggregates the per-node fault-handling counters.
func (f *Fleet) Stats() Stats {
	var out Stats
	f.eachNode(func(_ int, n *nodeLoop) { out.add(n.stats()) })
	return out
}

// LastSlices returns a copy of the last committed slices for one node
// (nil if the node is unknown).
func (f *Fleet) LastSlices(node int) map[int]sim.Time {
	sh := f.shardOf(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.find(node)
	if !ok {
		return nil
	}
	out := make(map[int]sim.Time)
	for _, v := range sh.nodes[i].loop.ctl.VMs() {
		if v.HasLast {
			out[v.ID] = v.Last
		}
	}
	return out
}

// FleetNodeStatus is one row of the /debug/atc fleet table.
type FleetNodeStatus struct {
	Node int `json:"node"`
	// Policy is the node's scheduler policy name, filled in by the
	// backend owner (the fleet itself is policy-agnostic).
	Policy string `json:"policy,omitempty"`
	// VMs is the number of VMs the node's controller tracks.
	VMs int `json:"vms"`
	// SliceUS is the slice currently in force for the node's parallel
	// VMs (the Algorithm-2 minimum), in microseconds; 0 when none.
	SliceUS float64 `json:"sliceUs"`
	// Periods counts the node's committed control periods.
	Periods uint64 `json:"periods"`
	// LastDecisionAgeMS is the wall-clock age of the node's last
	// committed actuation; -1 before the first.
	LastDecisionAgeMS float64 `json:"lastDecisionAgeMs"`
	// DroppedPeriods and StaleSamples are the node's fault counters.
	DroppedPeriods uint64 `json:"droppedPeriods"`
	StaleSamples   uint64 `json:"staleSamples"`
}

// Table renders the per-node fleet view, sorted by node ID.
func (f *Fleet) Table() []FleetNodeStatus {
	now := time.Now()
	var out []FleetNodeStatus
	f.eachNode(func(id int, n *nodeLoop) {
		st := FleetNodeStatus{
			Node:              id,
			Periods:           n.periods,
			LastDecisionAgeMS: -1,
			DroppedPeriods:    n.dropped,
			StaleSamples:      n.ctl.StaleSamples,
		}
		if !n.lastCommit.IsZero() {
			st.LastDecisionAgeMS = float64(now.Sub(n.lastCommit)) / float64(time.Millisecond)
		}
		minSlice := sim.Time(0)
		for _, v := range n.ctl.VMs() {
			if !v.Known {
				continue
			}
			st.VMs++
			if v.Parallel && v.HasLast && (minSlice == 0 || v.Last < minSlice) {
				minSlice = v.Last
			}
		}
		st.SliceUS = minSlice.Micros()
		out = append(out, st)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// FleetSummary is the top-level fleet view for /debug/atc.
type FleetSummary struct {
	Nodes     int    `json:"nodes"`
	Shards    int    `json:"shards"`
	Periods   uint64 `json:"periods"`
	Decisions uint64 `json:"decisions"`
	Rejected  uint64 `json:"rejected,omitempty"`
	Stats     Stats  `json:"stats"`
}

// Summary aggregates the fleet-wide control-plane state.
func (f *Fleet) Summary() FleetSummary {
	s := FleetSummary{
		Shards:    len(f.shards),
		Periods:   f.Periods(),
		Decisions: f.Decisions(),
		Rejected:  f.Rejected(),
	}
	f.eachNode(func(_ int, n *nodeLoop) {
		s.Nodes++
		s.Stats.add(n.stats())
	})
	return s
}
