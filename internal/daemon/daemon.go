// Package daemon hosts the reusable logic of cmd/atcd, a userspace
// Adaptive Time-slice Control daemon. The paper implements ATC inside
// the Xen scheduler; outside a modified hypervisor the same control loop
// can run in dom0 userspace — sample per-VM spinlock latency, decide
// through core.Node (the controller the simulator's ATC runs), and
// actuate per-VM slices through whatever knob the platform exposes
// (Xen's credit scheduler exposes a global tslice_ms; per-VM ratelimits
// and weights approximate the rest).
//
// There is one control loop, Fleet (fleet.go). It is written against two
// small interfaces, FleetSource and FleetActuator, so the same loop
// drives the simulated cluster (SimBackend), a text stream, or the
// in-memory fakes used in tests and the demo. A single machine is a
// 1-node fleet: SliceSource and WriterActuator speak for node 0. Each
// node's control state lives in a nodeLoop, in one table sorted by node
// ID; every period Fleet.Step samples all nodes, hands contiguous ranges
// of the table to worker goroutines that run decide → actuate → commit,
// and joins them.
package daemon

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// VMSample is one VM's state for one scheduling period.
type VMSample = core.Sample

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
	// slice and starts degrading it toward the default (default
	// core.DefaultStaleAfter, 2).
	StaleAfter int
}

// DefaultOptions returns the hardened-loop defaults.
func DefaultOptions() Options {
	return Options{
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
		GiveUpAfter:  5,
		StaleAfter:   core.DefaultStaleAfter,
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

// nodeLoop is one fleet node's control state: its core.Node decides,
// and the loop owns actuation — retries, commit-on-success, dropped
// periods and give-up. Fleet calls ctl.Decide, applyWithRetry and commit
// in that order once per period.
type nodeLoop struct {
	ctl  *core.Node
	opts Options

	consecDrops      int // drives the give-up policy
	periods          uint64
	retries, dropped uint64
	lastCommit       time.Time // wall clock of the last landed actuation (/debug/atc age)
}

// newNodeLoop builds one node's control state; an invalid cfg panics.
func newNodeLoop(cfg core.Config, opts Options) *nodeLoop {
	return &nodeLoop{ctl: core.NewNode(cfg, opts.StaleAfter), opts: opts}
}

// commit records a landed actuation: the last decision's slices become
// the ones in force and the period counts.
func (l *nodeLoop) commit() {
	l.ctl.Commit()
	l.periods++
}

// stats gathers the node's fault counters.
func (l *nodeLoop) stats() Stats {
	return Stats{Retries: l.retries, DroppedPeriods: l.dropped, StaleSamples: l.ctl.StaleSamples, Degraded: l.ctl.Degraded}
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
		l.retries++
		if wait != nil && backoff > 0 {
			wait(backoff)
		}
		backoff *= 2
	}
	l.dropped++
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
