package daemon

import (
	"cmp"
	"fmt"
	"slices"

	"atcsched/internal/core"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// SnapshotVersion is the fleet snapshot schema version. Bump it — and
// extend Encode and DecodeSnapshot — whenever a field is added, removed
// or changes meaning; decode rejects any other version outright rather
// than guessing.
const SnapshotVersion = 1

// VMSnapshot is one VM's control state inside a NodeSnapshot. Times are
// sim.Time nanoseconds; Lat/Slice are the controller's history windows,
// oldest first, present only for VMs the controller has observed.
type VMSnapshot struct {
	ID        int        `json:"id"`
	Known     bool       `json:"known,omitempty"`
	Parallel  bool       `json:"parallel,omitempty"`
	Admin     sim.Time   `json:"admin,omitempty"`
	HasLast   bool       `json:"hasLast,omitempty"`
	Last      sim.Time   `json:"last,omitempty"`
	Seq       uint64     `json:"seq,omitempty"`
	StaleRuns int        `json:"staleRuns,omitempty"`
	Observed  int        `json:"observed,omitempty"`
	Lat       []sim.Time `json:"lat,omitempty"`
	Slice     []sim.Time `json:"slice,omitempty"`
}

// NodeSnapshot is one fleet node's control state.
type NodeSnapshot struct {
	Node        int          `json:"node"`
	Periods     uint64       `json:"periods"`
	ConsecDrops int          `json:"consecDrops,omitempty"`
	Stats       Stats        `json:"stats"`
	VMs         []VMSnapshot `json:"vms,omitempty"`
}

// FleetSnapshot is the deterministic, versioned image of the whole
// control plane: per-node controller history, last-applied slices,
// sequence numbers, stale/backoff accounting, plus the fleet cursors
// (Periods/Decisions). It holds no wall-clock state, so a restore never
// perturbs the determinism fingerprint. Snapshots are taken between
// Steps, when no decision is in flight. Encode writes it as a binary
// checkpoint; its json tags define the JSON view. Version-1 JSON
// snapshots written before the per-period fan-out may carry an
// "overflow" count; decoding ignores it.
type FleetSnapshot struct {
	Version   int            `json:"version"`
	Config    core.Config    `json:"config"`
	Periods   uint64         `json:"periods"`
	Decisions uint64         `json:"decisions"`
	Nodes     []NodeSnapshot `json:"nodes"`
}

// Snapshot captures the fleet's control state. Call it between Steps:
// in-flight work is not represented, by design — a decision that has
// not landed was never committed. The node table is sorted by ID, so
// the node entries are one walk of it, under lockAll.
func (f *Fleet) Snapshot() *FleetSnapshot {
	s := &FleetSnapshot{
		Version:   SnapshotVersion,
		Config:    f.cfg,
		Periods:   f.Periods(),
		Decisions: f.Decisions(),
	}
	f.lockAll()
	defer f.unlockAll()
	if len(f.nodes) == 0 {
		return s
	}
	s.Nodes = make([]NodeSnapshot, len(f.nodes))
	var a snapArena
	for k, e := range f.nodes {
		s.Nodes[k] = e.loop.snapshot(e.id, &a)
	}
	return s
}

// snapArena is the backing store of one Snapshot's VM lists and
// history windows: each is carved from a chunk of about 16 KB, so a
// snapshot of thousands of nodes takes a few dozen allocations. The
// zero snapArena is ready to use.
type snapArena struct {
	vms   []VMSnapshot
	times []sim.Time
}

// Chunk sizes, in elements, for carving snapshot lists: about 16 KB of
// VMSnapshots or sim.Times.
const vmChunk, timeChunk = 128, 2048

// carve cuts the next n elements from *free, starting a new chunk of
// at least chunk elements when too few are left. The result is
// capacity-limited, so an append to it cannot write into the next.
func carve[T any](free *[]T, n, chunk int) []T {
	if n > len(*free) {
		*free = make([]T, max(n, chunk))
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}

// snapshot images the loop as node id's entry, one VM per table slot,
// carving its lists from a (caller holds lockAll).
func (l *nodeLoop) snapshot(id int, a *snapArena) NodeSnapshot {
	ns := NodeSnapshot{Node: id, Periods: l.periods, ConsecDrops: l.consecDrops, Stats: l.stats()}
	vms := l.ctl.VMs()
	if len(vms) > 0 {
		ns.VMs = carve(&a.vms, len(vms), vmChunk)
	}
	for i := range vms {
		v, vs := &vms[i], &ns.VMs[i]
		vs.ID, vs.Seq, vs.StaleRuns = v.ID, v.Seq, v.StaleRuns
		if v.Known {
			vs.Known, vs.Parallel, vs.Admin = true, v.Parallel, v.Admin
		}
		if v.HasLast {
			vs.HasLast, vs.Last = true, v.Last
		}
		if !v.Hist.IsZero() {
			vs.Lat, vs.Slice, vs.Observed = v.Hist.SnapshotInto(carve(&a.times, 2*l.ctl.Config().Window, timeChunk))
		}
	}
	return ns
}

// restoreNodeLoop rebuilds one node's loop from its snapshot entry.
// The VM table is sized for every entry up front. VM entries merge
// field by field into the VM's slot, in order; an entry that carries no
// state makes no slot.
func restoreNodeLoop(cfg core.Config, opts Options, ns *NodeSnapshot) (*nodeLoop, error) {
	l := newNodeLoop(cfg, opts)
	l.periods, l.consecDrops = ns.Periods, ns.ConsecDrops
	l.retries, l.dropped = ns.Stats.Retries, ns.Stats.DroppedPeriods
	l.ctl.StaleSamples, l.ctl.Degraded = ns.Stats.StaleSamples, ns.Stats.Degraded
	l.ctl.Grow(len(ns.VMs))
	for _, vs := range ns.VMs {
		hasHist := len(vs.Lat) > 0 || len(vs.Slice) > 0
		if !vs.Known && !vs.HasLast && vs.Seq == 0 && vs.StaleRuns == 0 && !hasHist {
			continue
		}
		v := l.ctl.Row(vs.ID)
		if vs.Known {
			v.Known, v.Parallel, v.Admin = true, vs.Parallel, vs.Admin
		}
		if vs.HasLast {
			v.HasLast, v.Last = true, vs.Last
		}
		v.Seq, v.StaleRuns = cmp.Or(vs.Seq, v.Seq), cmp.Or(vs.StaleRuns, v.StaleRuns)
		if hasHist {
			h, err := cfg.RestoreHistory(vs.Lat, vs.Slice, vs.Observed)
			if err != nil {
				return nil, fmt.Errorf("vm %d: %w", vs.ID, err)
			}
			v.Hist = h
		}
	}
	return l, nil
}

// Restore loads a snapshot into a freshly-built fleet, replacing any
// state. The snapshot's controller config must match the fleet's (the
// history windows are config-shaped). Node entries outside MaxNodes —
// a snapshot from a larger fleet, or a corrupt node ID — are counted in
// SkippedRestoreNodes and ignored, never fatal: the control plane must
// come back up with whatever state is still valid. Entries may come in
// any order; of two for one node, the later wins. Call before Run.
func (f *Fleet) Restore(s *FleetSnapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("daemon: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Config != f.cfg {
		return fmt.Errorf("daemon: snapshot config %+v does not match fleet config %+v", s.Config, f.cfg)
	}
	start := f.telNow()
	f.periods.Store(s.Periods)
	f.decisions.Store(s.Decisions)
	f.lockAll()
	row := -1
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if f.opts.MaxNodes > 0 && (ns.Node < 0 || ns.Node >= f.opts.MaxNodes) {
			f.skippedRestore.Add(1)
			continue
		}
		l, err := restoreNodeLoop(f.cfg, f.opts.Node, ns)
		if err != nil {
			f.unlockAll()
			return fmt.Errorf("daemon: restore node %d: %w", ns.Node, err)
		}
		var found bool
		if row, found = f.find(ns.Node, row+1); found {
			f.nodes[row].loop = l
		} else {
			f.nodes = slices.Insert(f.nodes, row, nodeEntry{id: ns.Node, loop: l})
		}
		f.restoredNodes.Add(1)
	}
	f.unlockAll()
	if f.tel != nil {
		f.tel.AddSpan(telemetry.Span{
			Name: "restore", Track: "fleet", Node: -1, Start: start, End: f.telNow(),
			Value: sim.Time(f.restoredNodes.Load()),
		})
		f.tel.Add("fleet_restores", telemetry.GlobalLabel(), 1)
	}
	return nil
}
