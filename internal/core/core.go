// Package core implements the paper's contribution: the Adaptive
// Time-slice Control (ATC) model.
//
// A History is one VM's window: the average spinlock latency and the
// time slice of the last three VMM scheduling periods. At each period
// boundary:
//
//   - Algorithm 1 (ComputeSlice) derives the VM's next slice from the
//     latency trend: shorten (by the coarse step α, or the fine step β
//     near the minimum threshold) while latency rises — or while it falls
//     only because the slice was shortened — and relax back toward the
//     default when the latency has stayed at zero for a full window.
//   - Algorithm 2 (NodeMin, Assign) takes the per-VM results for one
//     physical node, assigns every parallel VM the minimum of their
//     computed slices (fairness + O(N) complexity), and leaves
//     non-parallel VMs at the administrator-specified slice or the VMM
//     default.
//
// Node runs both for one physical node, skipping stale samples and
// degrading blacked-out VMs: it consumes samples and emits slice
// decisions, so the same code drives the simulator's ATC schedulers
// (internal/sched/atc, atcdfrs) and the userspace daemon (cmd/atcd).
//
// Two typos in the paper's Algorithm 1 are resolved as documented in
// DESIGN.md: line 4's decrement bound uses β (not α), and line 15's
// growth condition reads "timeSlice_{i-1} + α ≤ DEFAULT".
package core

import (
	"fmt"

	"atcsched/internal/sim"
)

// Params are a Config without the default slice, which belongs to the
// VMM (in the simulator, the credit core's time slice).
type Params struct {
	// MinThreshold is the floor below which slices are never shortened
	// (§III-B finds 0.3 ms optimal via the Euclidean metric).
	MinThreshold sim.Time `json:"minThreshold"`
	// Alpha is the coarse slice-adjustment step (α > β).
	Alpha sim.Time `json:"alpha"`
	// Beta is the fine slice-adjustment step used near the threshold.
	Beta sim.Time `json:"beta"`
	// Window is the number of scheduling periods of history consulted
	// (the paper uses 3).
	Window int `json:"window"`
}

// DefaultParams returns the parameters used throughout the evaluation:
// 0.3 ms minimum threshold, α = 6 ms, β = 0.3 ms (aligned with the
// threshold), 3-period window.
func DefaultParams() Params {
	return Params{
		MinThreshold: 300 * sim.Microsecond,
		Alpha:        6 * sim.Millisecond,
		Beta:         300 * sim.Microsecond,
		Window:       3,
	}
}

// Config parameterizes a Controller.
type Config struct {
	// Default is the VMM's default time slice (Xen Credit: 30 ms).
	Default sim.Time `json:"default"`
	Params
}

// DefaultConfig is DefaultParams with the 30 ms default slice.
func DefaultConfig() Config {
	return Config{Default: 30 * sim.Millisecond, Params: DefaultParams()}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Default <= 0:
		return fmt.Errorf("core: Default slice must be positive, got %v", c.Default)
	case c.MinThreshold <= 0:
		return fmt.Errorf("core: MinThreshold must be positive, got %v", c.MinThreshold)
	case c.MinThreshold > c.Default:
		return fmt.Errorf("core: MinThreshold %v exceeds Default %v", c.MinThreshold, c.Default)
	case c.Alpha <= 0 || c.Beta <= 0:
		return fmt.Errorf("core: steps must be positive (α=%v β=%v)", c.Alpha, c.Beta)
	case c.Alpha <= c.Beta:
		return fmt.Errorf("core: α (%v) must exceed β (%v)", c.Alpha, c.Beta)
	case c.Window < 2:
		return fmt.Errorf("core: window must be at least 2, got %d", c.Window)
	}
	return nil
}

// History is one VM's sliding window: the average spinlock latency and
// the slice in force for each of the last Window periods, plus the
// number of periods observed. The window is a ring, so a period costs
// one slot write: win holds the Window latencies and then the Window
// slices, and head is the slot of the oldest period, the one the next
// Observe overwrites. The zero History holds no window;
// Config.NewHistory makes a cold-start one.
type History struct {
	win      []sim.Time
	head     int
	observed int
}

// NewHistory returns a cold-start window: zero latency at the default
// slice, so a new VM behaves like an idle one.
func (c Config) NewHistory() History {
	h := History{win: make([]sim.Time, 2*c.Window)}
	for i := range h.win[c.Window:] {
		h.win[c.Window+i] = c.Default
	}
	return h
}

// IsZero reports whether h holds no window.
func (h *History) IsZero() bool { return h.win == nil }

// Observe records one period's average spinlock latency and the slice
// that was in force during that period over the oldest period's slot.
// It panics on a negative latency or a non-positive slice.
func (h *History) Observe(avgLatency, sliceInForce sim.Time) {
	if avgLatency < 0 {
		panic(fmt.Sprintf("core: negative latency %v", avgLatency))
	}
	if sliceInForce <= 0 {
		panic(fmt.Sprintf("core: non-positive slice %v", sliceInForce))
	}
	w := len(h.win) / 2
	h.win[h.head], h.win[w+h.head] = avgLatency, sliceInForce
	if h.head++; h.head == w {
		h.head = 0
	}
	h.observed++
}

// back returns the slot of the period k periods ago (1 ≤ k ≤ w).
func (h *History) back(k, w int) int {
	if i := h.head - k; i >= 0 {
		return i
	}
	return h.head - k + w
}

// SnapshotInto copies h's latency and slice windows (oldest first) into
// buf, which must hold two windows (2×Window entries), and returns them
// as capacity-limited sub-slices of buf, with the observed-period count.
func (h *History) SnapshotInto(buf []sim.Time) (lat, slice []sim.Time, observed int) {
	w := len(h.win) / 2
	lat, slice = buf[:w:w], buf[w:2*w:2*w]
	unroll(lat, h.win[:w], h.head)
	unroll(slice, h.win[w:], h.head)
	return lat, slice, h.observed
}

// unroll copies a ring whose oldest entry is at head into dst, oldest
// first.
func unroll(dst, ring []sim.Time, head int) {
	copy(dst[copy(dst, ring[head:]):], ring[:head])
}

// RestoreHistory rebuilds a window written by SnapshotInto. Both windows
// must have Window entries, with latencies non-negative and slices
// positive, so a corrupt snapshot cannot smuggle in values Observe
// would have rejected.
func (c Config) RestoreHistory(lat, slice []sim.Time, observed int) (History, error) {
	if len(lat) != c.Window || len(slice) != c.Window || observed < 0 {
		return History{}, fmt.Errorf("core: restore history: lat=%d slice=%d entries (want %d), observed %d",
			len(lat), len(slice), c.Window, observed)
	}
	for i := range lat {
		if lat[i] < 0 || slice[i] <= 0 {
			return History{}, fmt.Errorf("core: restore history: latency %v, slice %v at index %d", lat[i], slice[i], i)
		}
	}
	h := History{win: make([]sim.Time, 2*c.Window), observed: observed}
	copy(h.win, lat)
	copy(h.win[c.Window:], slice)
	return h, nil
}

// Controller implements ATC for one physical node's VM population,
// keeping one History per VM ID and no fault handling: the reference
// the daemon's tests compare Node against.
type Controller struct {
	cfg Config
	vms map[int]*History
}

// NewController returns a Controller; it panics on an invalid Config to
// surface misconfiguration at construction time.
func NewController(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Controller{cfg: cfg, vms: make(map[int]*History)}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// state fetches or creates a VM's history.
func (c *Controller) state(vmID int) *History {
	if h, ok := c.vms[vmID]; ok {
		return h
	}
	h := c.cfg.NewHistory()
	c.vms[vmID] = &h
	return &h
}

// Observe records one period's average spinlock latency and the slice
// that was in force for vmID during that period. Call once per VM per
// scheduling period, before ComputeSlice/NodeSlices.
func (c *Controller) Observe(vmID int, avgLatency, sliceInForce sim.Time) {
	c.state(vmID).Observe(avgLatency, sliceInForce)
}

// Forget drops a VM's history (VM destroyed or migrated away).
func (c *Controller) Forget(vmID int) { delete(c.vms, vmID) }

// History returns copies of the latency and slice windows for vmID
// (oldest first), for diagnostics.
func (c *Controller) History(vmID int) (lat, slice []sim.Time) {
	lat, slice, _ = c.state(vmID).SnapshotInto(make([]sim.Time, 2*c.cfg.Window))
	return lat, slice
}

// ComputeSlice is Algorithm 1: the slice vmID should use in the coming
// scheduling period, derived from the last Window periods of history.
func (c *Controller) ComputeSlice(vmID int) sim.Time {
	return c.cfg.ComputeSlice(c.state(vmID))
}

// ComputeSlice is Algorithm 1 over one VM's window h (cold-start or
// observed; never the zero History).
func (c *Config) ComputeSlice(h *History) sim.Time {
	w := c.Window
	lat, slice := h.win[:w:w], h.win[w:2*w:2*w]
	p1, p2 := h.back(1, w), h.back(2, w)
	latPrev := lat[p1]                    // sLatency_{i-1}
	latPrev2 := lat[p2]                   // sLatency_{i-2}
	latPrev3 := lat[h.back(min(w, 3), w)] // sLatency_{i-3} (window 2 reuses the oldest)
	slicePrev := slice[p1]                // timeSlice_{i-1}
	slicePrev2 := slice[p2]               // timeSlice_{i-2}

	// Lines 1-11: while latency rises, or falls only because the slice
	// was shortened, shorten the slice by α, or by β where α would take
	// it below the minimum threshold, or not at all where β would too.
	// Latency trends are data, so the condition is summed from 0/1
	// terms instead of branched on, and every choice below is a
	// conditional move.
	step := sim.Time(0)
	if slicePrev-c.Beta >= c.MinThreshold {
		step = c.Beta
	}
	if slicePrev-c.Alpha >= c.MinThreshold {
		step = c.Alpha
	}
	rising := less(latPrev2, latPrev)
	fallingDueToShorterSlice := less(latPrev2, latPrev3) & less(latPrev, latPrev2) & less(slicePrev, slicePrev2)
	next := slicePrev - (rising|fallingDueToShorterSlice)*step

	// Lines 12-20: latency stayed zero for the whole window → relax the
	// slice by α, or to the default where α would pass it. (The paper's
	// third case, a β step, is never taken: a slice that α does not
	// carry past the default has room for α.) Latencies are
	// non-negative, so their OR is zero exactly when every one is.
	var nonzero sim.Time
	for _, l := range lat {
		nonzero |= l
	}
	relaxed := slicePrev + c.Alpha
	if slicePrev > c.Default-c.Alpha {
		relaxed = c.Default
	}
	if nonzero == 0 {
		next = relaxed
	}
	return max(next, c.MinThreshold)
}

// less is 1 when a < b and 0 otherwise.
func less(a, b sim.Time) sim.Time {
	if a < b {
		return 1
	}
	return 0
}

// VMInfo describes one VM for NodeSlices.
type VMInfo struct {
	ID int
	// Parallel marks VMs running tightly-coupled parallel applications.
	Parallel bool
	// AdminSlice, when nonzero, pins a non-parallel VM's slice (the
	// administrator interface of §III-C). Ignored for parallel VMs.
	AdminSlice sim.Time
}

// NodeMin folds one parallel VM into Algorithm 2's node minimum: min
// is the minimum over the node's parallel VMs so far (0 before the
// first) and h is the next one's window.
func (c *Config) NodeMin(min sim.Time, h *History) sim.Time {
	if s := c.ComputeSlice(h); min == 0 || s < min {
		return s
	}
	return min
}

// Assign is Algorithm 2's per-VM rule: a parallel VM gets the node
// minimum min (when the node has one); a non-parallel VM gets its admin
// slice, or the default.
func (c *Config) Assign(vm VMInfo, min sim.Time) sim.Time {
	switch {
	case vm.Parallel && min > 0:
		return min
	case !vm.Parallel && vm.AdminSlice > 0:
		return vm.AdminSlice
	}
	return c.Default
}

// NodeSlices is Algorithm 2: compute every VM's slice for the coming
// period on one physical node. All parallel VMs receive the minimum of
// their Algorithm-1 slices; non-parallel VMs receive their admin slice or
// the default. With no parallel VMs everything runs at the default.
func (c *Controller) NodeSlices(vms []VMInfo) map[int]sim.Time {
	out := make(map[int]sim.Time, len(vms))
	minSlice := sim.Time(0)
	for _, vm := range vms {
		if vm.Parallel {
			minSlice = c.cfg.NodeMin(minSlice, c.state(vm.ID))
		}
	}
	for _, vm := range vms {
		out[vm.ID] = c.cfg.Assign(vm, minSlice)
	}
	return out
}
