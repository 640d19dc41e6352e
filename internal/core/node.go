package core

import (
	"cmp"
	"slices"

	"atcsched/internal/sim"
)

// DefaultStaleAfter is how many consecutive stale or missing periods a
// Node holds a VM's slice before degrading it toward the default.
const DefaultStaleAfter = 2

// Sample is one VM's monitor reading for one scheduling period.
type Sample struct {
	ID int
	// AvgSpinLatency is the mean guest spinlock latency over the period.
	AvgSpinLatency sim.Time
	// Parallel classifies the VM (tightly-coupled parallel application).
	Parallel bool
	// AdminSlice, when nonzero, pins a non-parallel VM's slice.
	AdminSlice sim.Time
	// Seq, when nonzero, is the monitor's sequence number for the
	// sample; one that does not advance marks the reading as stale. Zero
	// means the source does not track sequences (every sample is fresh).
	Seq uint64
}

// VM is one row of a Node's table. A row exists once the VM has any
// state: a batch named it, or a restore wrote some. Its flags share
// the last word, so a row is 120 bytes.
type VM struct {
	ID int
	// Admin and Parallel are the classification the node keeps
	// deciding with through a monitoring blackout (set when Known).
	Admin sim.Time
	// Last is the slice of the last committed decision (set when
	// HasLast).
	Last      sim.Time
	Seq       uint64  // last fresh sample's sequence number (0: none)
	StaleRuns int     // consecutive stale or missing periods
	Hist      History // Algorithm-1 window; zero until observed or restored

	// seen and decided hold the epoch of the last Decide whose batch
	// named the VM and that chose next for it; inMin marks a fresh
	// parallel sample in the current Decide.
	seen, decided uint64
	next          sim.Time
	// mapped mirrors the decision map's entry for the VM while inMap,
	// so Decide writes the map only where a decision changed.
	mapped sim.Time

	Known, Parallel, HasLast bool
	inMap, inMin             bool
}

// inForce is the slice the VM runs at: its last committed one, or def.
func (v *VM) inForce(def sim.Time) sim.Time {
	if v.HasLast {
		return v.Last
	}
	return def
}

// Node is the ATC controller of one physical node: a table of VM rows
// sorted by ID, plus stale-sample and blackout handling around
// Algorithms 1-2. Every period its owner calls Decide with the node's
// samples, actuates the returned slices, and calls Commit once they
// have landed. The simulator's ATC schedulers and the daemon's fleet
// both decide through it.
type Node struct {
	cfg        Config
	staleAfter int
	vms        []VM

	// epoch counts Decides; decisions, Decide's output, is reused
	// period to period.
	epoch     uint64
	decisions map[int]sim.Time

	// StaleSamples counts samples skipped as stale; Degraded counts
	// decisions where a blackout moved a parallel VM toward the default.
	StaleSamples, Degraded uint64
}

// NewNode returns an empty node controller that degrades a VM after
// staleAfter (at least 1) stale or missing periods; it panics on an
// invalid Config.
func NewNode(cfg Config, staleAfter int) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Node{cfg: cfg, staleAfter: max(staleAfter, 1), decisions: make(map[int]sim.Time)}
}

// Config returns the node's controller configuration.
func (n *Node) Config() Config { return n.cfg }

// VMs returns the table, sorted by VM ID. Callers must not modify it.
func (n *Node) VMs() []VM { return n.vms }

// Row returns vmID's row, inserting an empty one if needed (to restore
// saved state); the pointer is valid until the next Row, Grow or Decide.
func (n *Node) Row(vmID int) *VM { return &n.vms[n.row(vmID, len(n.vms))] }

// Grow makes room for k more rows, so that restoring k VMs sizes the
// table once instead of growing it row by row.
func (n *Node) Grow(k int) { n.vms = slices.Grow(n.vms, k) }

// row returns the index of vmID's row, inserting an empty one in ID
// order if there is none. hint is tried first: sources name the same
// VMs in the same order every period, so the row after the last one
// matched usually is the next one wanted.
func (n *Node) row(vmID, hint int) int {
	if hint < len(n.vms) && n.vms[hint].ID == vmID {
		return hint
	}
	i, found := slices.BinarySearchFunc(n.vms, vmID, func(v VM, id int) int { return cmp.Compare(v.ID, id) })
	if !found {
		n.vms = slices.Insert(n.vms, i, VM{ID: vmID})
	}
	return i
}

// Decide consumes one period's samples: skip stale ones, advance the
// fresh VMs' windows, run Algorithm 1 per VM and Algorithm 2 node-wide
// (with perVM, the ablation: each parallel VM keeps its own Algorithm-1
// slice), and degrade VMs whose samples are stale or missing. It
// commits nothing, so a failed actuation never records a slice that did
// not take effect. The returned map, one slice per VM decided this
// period, is reused by the next Decide.
//
// Decide makes three passes and keeps no list between them: each marks
// what the next needs in the rows. The first observes each fresh
// sample into its row's window. The second takes Algorithm 2's minimum
// over the rows that had a fresh parallel sample; it is a pass of its
// own because a batch may name one VM twice, and the minimum must see
// the VM's final window. The third assigns each freshly sampled row its
// slice by the class of its last fresh sample, degrades blacked-out
// VMs and writes the decisions that changed.
func (n *Node) Decide(samples []Sample, perVM bool) map[int]sim.Time {
	n.epoch++
	hint := 0
	for k := range samples {
		s := &samples[k]
		i := n.row(s.ID, hint)
		hint = i + 1
		v := &n.vms[i]
		v.seen = n.epoch
		if !v.Known {
			v.Known, v.Parallel, v.Admin = true, s.Parallel, s.AdminSlice
		}
		if s.Seq != 0 && s.Seq <= v.Seq {
			// The monitor is repeating itself; skip the observation
			// rather than feeding old data back into Algorithm 1.
			n.StaleSamples++
			v.StaleRuns++
			continue
		}
		v.Seq = cmp.Or(s.Seq, v.Seq)
		v.StaleRuns = 0
		v.Parallel, v.Admin = s.Parallel, s.AdminSlice
		if v.Hist.IsZero() {
			v.Hist = n.cfg.NewHistory()
		}
		v.Hist.Observe(s.AvgSpinLatency, v.inForce(n.cfg.Default))
		v.decided = n.epoch
		v.inMin = v.inMin || s.Parallel
	}

	minSlice := sim.Time(0)
	if !perVM {
		for i := range n.vms {
			if v := &n.vms[i]; v.inMin {
				minSlice = n.cfg.NodeMin(minSlice, &v.Hist)
			}
		}
	}
	for i := range n.vms {
		v := &n.vms[i]
		if v.decided == n.epoch {
			sl := minSlice
			if perVM && v.Parallel {
				sl = n.cfg.ComputeSlice(&v.Hist)
			}
			v.next = n.cfg.Assign(VMInfo{Parallel: v.Parallel, AdminSlice: v.Admin}, sl)
		}
		v.inMin = false
		// A known VM missing from the sample set entirely is a dropout
		// — the other face of a monitoring blackout.
		if v.Known && v.seen != n.epoch {
			v.StaleRuns++
		}
		if v.StaleRuns != 0 {
			n.degrade(v)
		}
		switch {
		case v.decided == n.epoch && (!v.inMap || v.mapped != v.next):
			n.decisions[v.ID] = v.next
			v.inMap, v.mapped = true, v.next
		case v.decided != n.epoch && v.inMap:
			delete(n.decisions, v.ID)
			v.inMap = false
		}
	}
	return n.decisions
}

// Commit records that the last Decide's slices landed: they become the
// slices in force that the next windows observe.
func (n *Node) Commit() {
	for i := range n.vms {
		if v := &n.vms[i]; v.decided == n.epoch {
			v.HasLast, v.Last = true, v.next
		}
	}
}

// degrade overrides the decision for a VM whose monitoring is stale or
// missing: hold the slice in force for the first staleAfter-1
// blacked-out periods, then walk a parallel VM's slice toward the
// default by Alpha per period — the same fallback the paper applies to
// VMs it cannot adapt. Non-parallel VMs revert to their admin slice (or
// the default) immediately at the threshold.
func (n *Node) degrade(v *VM) {
	cur := v.inForce(n.cfg.Default)
	switch {
	case v.StaleRuns < n.staleAfter:
		v.next = cur
	case !v.Parallel:
		v.next = n.cfg.Assign(VMInfo{AdminSlice: v.Admin}, 0)
	default:
		v.next = stepToward(cur, n.cfg.Default, n.cfg.Alpha)
		if v.next != cur {
			n.Degraded++
		}
	}
	v.decided = n.epoch
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
