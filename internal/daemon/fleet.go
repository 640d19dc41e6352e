package daemon

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"atcsched/internal/core"
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

// FleetActuator applies one node's slices. A period's workers actuate
// their nodes concurrently, so ApplyNode may run for several nodes at
// once, but never for one node twice at once. The fleet reuses the
// slices map for the node's next period, updating only the entries
// that change, so ApplyNode must neither modify it nor keep it after
// returning.
type FleetActuator interface {
	ApplyNode(node int, slices map[int]sim.Time) error
}

// FleetOptions size the fleet control plane.
type FleetOptions struct {
	// Node carries the per-node hardened-loop options (retry/stale/
	// giveup), applied to every fleet node.
	Node Options
	// Shards is the number of worker goroutines a period's nodes are
	// spread over: worker k drives the k-th of Shards contiguous ranges
	// of the ID-sorted node table (default 1).
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

// fleetWorker is one of a period's Shards goroutines. Of an n-row node
// table, worker k of K drives the rows r with r·K/n = k (integer
// division): the range [⌈k·n/K⌉, ⌈(k+1)·n/K⌉), so worker 0, which runs
// on Step's own goroutine, always has row 0. mu guards those
// rows' nodeLoops: the worker holds it for decide and commit and
// releases it around ApplyNode and backoff waits, so readers, which
// take every worker's mutex (lockAll), never wait on a slow actuator.
// Each worker has a 64-byte cache line to itself: packed together, the
// workers' mutexes shared a line and their lock traffic contended.
type fleetWorker struct {
	mu sync.Mutex
	// work lists the current period's batches on the worker's rows as
	// indices into Step's batch slice, in batch order (Step scratch).
	work []int
	_    [64 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([]int(nil))]byte
}

// nodeEntry is one row of the fleet's node table.
type nodeEntry struct {
	id   int
	loop *nodeLoop
}

// find returns node's row, or the row it belongs at, and whether the
// row is there. The row at hint is tried first: sources name the same
// nodes in the same order every period, so a node's row is usually the
// one after the last.
func (f *Fleet) find(node, hint int) (int, bool) {
	if hint < len(f.nodes) && f.nodes[hint].id == node {
		return hint, true
	}
	return slices.BinarySearchFunc(f.nodes, node, func(e nodeEntry, id int) int { return cmp.Compare(e.id, id) })
}

// lockAll takes every worker's mutex, in worker order; unlockAll
// releases them. The node table's rows may be inserted only under
// lockAll, and every reader of the table holds it.
func (f *Fleet) lockAll() {
	for i := range f.workers {
		f.workers[i].mu.Lock()
	}
}

func (f *Fleet) unlockAll() {
	for i := range f.workers {
		f.workers[i].mu.Unlock()
	}
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
	row    int // the node's row in the table; -1 for a rejected batch
	slices map[int]sim.Time
	result string // a decision* constant; "" for a rejected batch
	err    error
}

// Fleet is the control plane: one nodeLoop per node, in one table
// sorted by node ID. Each Step samples every node, hands each worker
// goroutine a contiguous range of the table to run decide →
// applyWithRetry → commit on, and joins them. Nodes are independent and
// a node's batches stay on one worker in batch order, so the control
// state after a Step is the same at any worker count. A 1-node fleet is
// the single-machine daemon.
type Fleet struct {
	cfg     core.Config
	opts    FleetOptions
	src     FleetSource
	act     FleetActuator
	nodes   []nodeEntry // the node table, sorted by node ID
	workers []fleetWorker
	outs    []outcome      // Step scratch, one per batch
	join    sync.WaitGroup // Step's wait for its worker goroutines
	err     error          // sticky terminal error (a node gave up)

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
		workers:  make([]fleetWorker, opts.Shards),
		stopc:    make(chan struct{}),
		vmLabels: make(map[int]string),
	}
	return f
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

// Step runs one fleet-wide control period: sample every node, find each
// batch's row (inserting new nodes), hand each worker the batches on its
// rows, run the workers on their own goroutines, join.
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

	f.lockAll()
	f.outs = f.outs[:0]
	row := -1
	for _, b := range batches {
		o := outcome{node: b.Node, row: -1}
		if f.opts.MaxNodes > 0 && (b.Node < 0 || b.Node >= f.opts.MaxNodes) {
			f.rejected.Add(1)
		} else {
			var found bool
			if row, found = f.find(b.Node, row+1); !found {
				if row < len(f.nodes) { // rows found so far at or after it move down one
					for j := range f.outs {
						if f.outs[j].row >= row {
							f.outs[j].row++
						}
					}
				}
				f.nodes = slices.Insert(f.nodes, row, nodeEntry{id: b.Node, loop: newNodeLoop(f.cfg, f.opts.Node)})
			}
			o.row = row
		}
		f.outs = append(f.outs, o)
	}
	// Bucket by row, not by batch position, so every batch of a node
	// named twice lands on the node's worker, in batch order.
	n, k := len(f.nodes), len(f.workers)
	for w := range f.workers {
		f.workers[w].work = f.workers[w].work[:0]
	}
	for i := range f.outs {
		if r := f.outs[i].row; r >= 0 {
			w := &f.workers[r*k/n]
			w.work = append(w.work, i)
		}
	}
	f.unlockAll()
	for i := 1; i < k; i++ {
		if w := &f.workers[i]; len(w.work) > 0 {
			f.join.Add(1)
			go func() {
				defer f.join.Done()
				f.runWorker(w, batches)
			}()
		}
	}
	f.runWorker(&f.workers[0], batches)
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

// runWorker drives one period for a worker's batches in batch order,
// recording each batch's outcome in f.outs.
func (f *Fleet) runWorker(w *fleetWorker, batches []NodeBatch) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, i := range w.work {
		o := &f.outs[i]
		node, fn := o.node, f.nodes[o.row].loop
		slices := fn.ctl.Decide(batches[i].Samples, false)
		committed, err := fn.applyWithRetry(slices, func(s map[int]sim.Time) error {
			w.mu.Unlock()
			defer w.mu.Lock()
			return f.act.ApplyNode(node, s)
		}, func(dt time.Duration) {
			w.mu.Unlock()
			defer w.mu.Lock()
			f.wait(dt)
		})
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
// Only Step's goroutine calls it, after the workers have joined.
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

// eachNode calls fn for every node in node-ID order, under lockAll.
func (f *Fleet) eachNode(fn func(id int, n *nodeLoop)) {
	f.lockAll()
	defer f.unlockAll()
	for _, e := range f.nodes {
		fn(e.id, e.loop)
	}
}

// Nodes lists every node the fleet holds state for, sorted.
func (f *Fleet) Nodes() []int {
	var ids []int
	f.eachNode(func(id int, _ *nodeLoop) { ids = append(ids, id) })
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
	f.lockAll()
	defer f.unlockAll()
	i, ok := f.find(node, 0)
	if !ok {
		return nil
	}
	out := make(map[int]sim.Time)
	for _, v := range f.nodes[i].loop.ctl.VMs() {
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
		Shards:    len(f.workers),
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
