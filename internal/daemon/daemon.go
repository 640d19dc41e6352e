// Package daemon hosts the reusable logic of cmd/atcd, a userspace
// Adaptive Time-slice Control daemon. The paper implements ATC inside
// the Xen scheduler; outside a modified hypervisor the same control loop
// can run in dom0 userspace — sample per-VM spinlock latency, run
// Algorithms 1-2 (internal/core), and actuate per-VM slices through
// whatever knob the platform exposes (Xen's credit scheduler exposes a
// global tslice_ms; per-VM ratelimits and weights approximate the rest).
//
// There is one control loop, Fleet (fleet.go). It is written against two
// small interfaces, FleetSource and FleetActuator, so the same loop
// drives the simulated cluster (SimBackend), a text stream, or the
// in-memory fakes used in tests and the demo. A single machine is a
// 1-node fleet: SliceSource and WriterActuator speak for node 0. Each
// node's control logic lives in a nodeLoop; every period Fleet.Step
// samples all nodes, fans the nodes out over shard goroutines that run
// decide → actuate → commit, and joins them.
package daemon

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// VMSample is one VM's state for one scheduling period.
type VMSample struct {
	ID int
	// AvgSpinLatency is the mean guest spinlock latency over the period.
	AvgSpinLatency sim.Time
	// Parallel classifies the VM (tightly-coupled parallel application).
	Parallel bool
	// AdminSlice, when nonzero, pins a non-parallel VM's slice.
	AdminSlice sim.Time
	// Seq, when nonzero, is the monitor's sample sequence number for
	// this VM; a repeated Seq marks the reading as stale and the daemon
	// skips it rather than feeding old data to the controller. Zero
	// means the source does not track sequences (every sample is taken
	// as fresh — the pre-fault-plane behaviour).
	Seq uint64
}

// Options harden the control loop against a faulty environment.
type Options struct {
	// MaxRetries bounds the re-attempts after a failed Apply within one
	// period (default 3; each retry doubles the backoff). When all
	// attempts fail the period is dropped: no state is committed and
	// the loop moves on to the next sample.
	MaxRetries int
	// RetryBackoff is the delay before the first retry (default 10 ms,
	// doubling per retry).
	RetryBackoff time.Duration
	// Sleep performs the backoff wait (tests inject a recorder). The
	// wait is wall-clock — actuator recovery is a property of the real
	// platform, not of virtual time. When nil (the default) the daemon
	// waits on the wall clock but wakes early once Stop is called, so a
	// shutdown is not held hostage by a long backoff; the remaining
	// retry attempts still run, draining the in-flight actuation.
	Sleep func(time.Duration)
	// GiveUpAfter is the number of consecutive dropped periods after
	// which the loop gives up with a terminal error (default 5).
	GiveUpAfter int
	// StaleAfter is the number of consecutive periods a VM's sample may
	// be stale or missing before the daemon stops holding its last
	// slice and starts degrading it toward the default (default 2).
	StaleAfter int
}

// DefaultOptions returns the hardened-loop defaults.
func DefaultOptions() Options {
	return Options{
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
		GiveUpAfter:  5,
		StaleAfter:   2,
	}
}

// sanitize clamps nonsense option values.
func (o *Options) sanitize() {
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.GiveUpAfter < 1 {
		o.GiveUpAfter = 1
	}
	if o.StaleAfter < 1 {
		o.StaleAfter = 1
	}
}

// Stats counts the hardened loop's fault handling.
type Stats struct {
	// Retries counts Apply re-attempts (not first attempts).
	Retries uint64 `json:"retries"`
	// DroppedPeriods counts periods whose actuation never landed; their
	// decisions were discarded and no state was committed.
	DroppedPeriods uint64 `json:"droppedPeriods"`
	// StaleSamples counts samples skipped because their sequence number
	// did not advance.
	StaleSamples uint64 `json:"staleSamples"`
	// Degraded counts per-VM period decisions where a monitoring
	// blackout moved a parallel VM's slice toward the default instead
	// of acting on stale data.
	Degraded uint64 `json:"degraded"`
}

// add accumulates another node's counters (fleet aggregation).
func (s *Stats) add(o Stats) {
	s.Retries += o.Retries
	s.DroppedPeriods += o.DroppedPeriods
	s.StaleSamples += o.StaleSamples
	s.Degraded += o.Degraded
}

// vmSlot is everything a nodeLoop holds for one VM. A slot exists once
// the VM has any state: a batch named it, or a snapshot restored some.
type vmSlot struct {
	id int
	// parallel and admin are the classification the loop keeps deciding
	// with through a monitoring blackout; known marks them as set.
	known, parallel bool
	admin           sim.Time
	hasLast         bool // last is the slice of the last landed actuation
	last            sim.Time
	seq             uint64       // last fresh sample's sequence number (0: none)
	staleRuns       int          // consecutive stale or missing periods
	hist            core.History // Algorithm-1 window; zero until observed or restored
	// seen and decided hold the epoch of the last decide whose batch
	// named the VM and that chose next for it.
	seen, decided uint64
	next          sim.Time
	// inMap and mapped mirror the decision map's entry for the VM, so
	// decide writes the map only where a decision changed.
	inMap  bool
	mapped sim.Time
}

// inForce is the slice the VM runs at: its last landed one, or def.
func (v *vmSlot) inForce(def sim.Time) sim.Time {
	if v.hasLast {
		return v.last
	}
	return def
}

// observation is one fresh sample of the period: its slot and class.
type observation struct {
	slot int
	vm   core.VMInfo
}

// nodeLoop is the per-node heart of the control plane: one VM table
// plus the commit-on-success / stale-detection / blackout-degradation /
// retry-accounting state. Fleet owns one per node and calls decide,
// applyWithRetry and commit in that order once per period; a 1-node
// fleet is the single-machine daemon.
type nodeLoop struct {
	cfg  core.Config
	opts Options
	vms  []vmSlot // sorted by VM ID

	// epoch counts decides; obs and decisions are decide's scratch and
	// output, reused period to period.
	epoch     uint64
	obs       []observation
	decisions map[int]sim.Time

	consecDrops int // drives the give-up policy
	periods     uint64
	stats       Stats
	lastCommit  time.Time // wall clock of the last landed actuation (/debug/atc age)
}

// newNodeLoop builds one node's control state. opts must already be
// sanitized; an invalid cfg panics (use core.DefaultConfig()).
func newNodeLoop(cfg core.Config, opts Options) *nodeLoop {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &nodeLoop{cfg: cfg, opts: opts, decisions: make(map[int]sim.Time)}
}

// slot returns the index of vmID's slot, inserting an empty one in ID
// order if there is none. hint is tried first: sources name the same
// VMs in the same order every period, so the slot after the last one
// matched usually is the next one wanted.
func (l *nodeLoop) slot(vmID, hint int) int {
	if hint < len(l.vms) && l.vms[hint].id == vmID {
		return hint
	}
	i, found := slices.BinarySearchFunc(l.vms, vmID, func(v vmSlot, id int) int { return cmp.Compare(v.id, id) })
	if !found {
		l.vms = slices.Insert(l.vms, i, vmSlot{id: vmID})
		for j := range l.obs {
			if l.obs[j].slot >= i {
				l.obs[j].slot++
			}
		}
	}
	return i
}

// decide consumes one period's samples: stale-filter, advance the
// VMs' windows, run Algorithm 2, degrade blacked-out VMs. It commits
// nothing — call commit only after the actuation lands, so a failed
// Apply can never record a slice that never took effect. The returned
// map is reused by the next decide.
func (l *nodeLoop) decide(samples []VMSample) map[int]sim.Time {
	l.epoch++
	l.obs = l.obs[:0]
	hint := 0
	for _, s := range samples {
		i := l.slot(s.ID, hint)
		hint = i + 1
		v := &l.vms[i]
		v.seen = l.epoch
		if !v.known {
			v.known, v.parallel, v.admin = true, s.Parallel, s.AdminSlice
		}
		if s.Seq != 0 && s.Seq <= v.seq {
			// The monitor is repeating itself; skip the observation
			// rather than feeding old data back into the controller.
			l.stats.StaleSamples++
			v.staleRuns++
			continue
		}
		v.seq = cmp.Or(s.Seq, v.seq)
		v.staleRuns = 0
		v.parallel, v.admin = s.Parallel, s.AdminSlice
		if v.hist.IsZero() {
			v.hist = l.cfg.NewHistory()
		}
		v.hist.Observe(s.AvgSpinLatency, v.inForce(l.cfg.Default))
		l.obs = append(l.obs, observation{slot: i, vm: core.VMInfo{ID: s.ID, Parallel: s.Parallel, AdminSlice: s.AdminSlice}})
	}

	// Algorithm 2 over the fresh samples, in batch order.
	minSlice := sim.Time(0)
	for _, o := range l.obs {
		if o.vm.Parallel {
			minSlice = l.cfg.NodeMin(minSlice, &l.vms[o.slot].hist)
		}
	}
	for _, o := range l.obs {
		v := &l.vms[o.slot]
		v.next, v.decided = l.cfg.Assign(o.vm, minSlice), l.epoch
	}

	for i := range l.vms {
		v := &l.vms[i]
		// A known VM missing from the sample set entirely is a dropout
		// — the other face of a monitoring blackout.
		if v.known && v.seen != l.epoch {
			v.staleRuns++
		}
		if v.staleRuns != 0 {
			l.degrade(v)
		}
		switch {
		case v.decided == l.epoch && (!v.inMap || v.mapped != v.next):
			l.decisions[v.id] = v.next
			v.inMap, v.mapped = true, v.next
		case v.decided != l.epoch && v.inMap:
			delete(l.decisions, v.id)
			v.inMap = false
		}
	}
	return l.decisions
}

// commit records a landed actuation: the last decide's slices become
// the in-force history and the period counts.
func (l *nodeLoop) commit() {
	for i := range l.vms {
		if v := &l.vms[i]; v.decided == l.epoch {
			v.hasLast, v.last = true, v.next
		}
	}
	l.periods++
}

// degrade overrides the decision for a VM whose monitoring is stale or
// missing: hold the last applied slice for the first StaleAfter-1
// blacked-out periods, then walk a parallel VM's slice toward the
// controller default by Alpha per period — the same fallback the paper
// applies to VMs it cannot adapt. Non-parallel VMs revert to their
// admin slice (or the default) immediately at the threshold.
func (l *nodeLoop) degrade(v *vmSlot) {
	cur := v.inForce(l.cfg.Default)
	switch {
	case v.staleRuns < l.opts.StaleAfter:
		v.next = cur
	case !v.parallel:
		v.next = l.cfg.Assign(core.VMInfo{AdminSlice: v.admin}, 0)
	default:
		v.next = stepToward(cur, l.cfg.Default, l.cfg.Alpha)
		if v.next != cur {
			l.stats.Degraded++
		}
	}
	v.decided = l.epoch
}

// stepToward moves cur toward target by at most step.
func stepToward(cur, target, step sim.Time) sim.Time {
	switch {
	case cur < target:
		if cur+step >= target {
			return target
		}
		return cur + step
	case cur > target:
		if cur-step <= target {
			return target
		}
		return cur - step
	}
	return cur
}

// applyWithRetry drives one period's actuation through the retry
// policy. apply performs one attempt; wait performs the backoff (nil
// skips waiting). It returns (true, nil) when the slices landed,
// (false, nil) when the period was dropped after exhausting retries,
// and a terminal error after GiveUpAfter consecutive dropped periods.
func (l *nodeLoop) applyWithRetry(slices map[int]sim.Time, apply func(map[int]sim.Time) error, wait func(time.Duration)) (bool, error) {
	backoff := l.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if err = apply(slices); err == nil {
			l.consecDrops = 0
			return true, nil
		}
		if attempt >= l.opts.MaxRetries {
			break
		}
		l.stats.Retries++
		if wait != nil && backoff > 0 {
			wait(backoff)
		}
		backoff *= 2
	}
	l.stats.DroppedPeriods++
	l.consecDrops++
	if l.consecDrops >= l.opts.GiveUpAfter {
		return false, fmt.Errorf("daemon: giving up after %d consecutive dropped periods (%d attempts each): %w",
			l.consecDrops, l.opts.MaxRetries+1, err)
	}
	return false, nil
}

// WriterActuator renders each period's slices as "vm<id> <micros>us"
// lines terminated by "--" — the shape a real deployment would translate
// into hypervisor calls (e.g., "xl sched-credit -d <dom> -t <tslice>").
// VM IDs are cluster-unique, so the node is not printed.
type WriterActuator struct {
	W io.Writer
}

// ApplyNode implements FleetActuator.
func (w WriterActuator) ApplyNode(_ int, decided map[int]sim.Time) error {
	for _, id := range slices.Sorted(maps.Keys(decided)) {
		if _, err := fmt.Fprintf(w.W, "vm%d %.0fus\n", id, decided[id].Micros()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w.W, "--")
	return err
}

// SliceSource replays a fixed schedule of periods as node 0's batches
// (tests, demo). An empty period still yields a batch, so the node sees
// its VMs drop out rather than the control plane going dark.
type SliceSource struct {
	Periods [][]VMSample
	i       int
}

// SampleFleet implements FleetSource.
func (s *SliceSource) SampleFleet() ([]NodeBatch, error) {
	if s.i >= len(s.Periods) {
		return nil, io.EOF
	}
	p := s.Periods[s.i]
	s.i++
	return []NodeBatch{{Node: 0, Samples: p}}, nil
}
