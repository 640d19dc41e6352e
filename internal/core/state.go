package core

import (
	"fmt"

	"atcsched/internal/sim"
)

// AppendTrackedVMs appends to ids, in no particular order, the IDs of
// the VMs the controller currently holds history for. Unlike History,
// it never creates state.
func (c *Controller) AppendTrackedVMs(ids []int) []int {
	for id := range c.vms {
		ids = append(ids, id)
	}
	return ids
}

// ExportVM returns copies of vmID's latency and slice windows (oldest
// first) plus the observed-period count, without creating state for an
// unknown VM: ok is false when the controller has never seen vmID.
func (c *Controller) ExportVM(vmID int) (lat, slice []sim.Time, observed int, ok bool) {
	st, found := c.vms[vmID]
	if !found {
		return nil, nil, 0, false
	}
	return append([]sim.Time(nil), st.lat...),
		append([]sim.Time(nil), st.slice...),
		st.observed, true
}

// ImportVM installs a previously-exported history for vmID, replacing
// any existing state. Both windows must match the controller's
// configured Window length; slices must be positive and latencies
// non-negative so a corrupt snapshot cannot smuggle in values Observe
// would have rejected.
func (c *Controller) ImportVM(vmID int, lat, slice []sim.Time, observed int) error {
	w := c.cfg.Window
	if len(lat) != w || len(slice) != w {
		return fmt.Errorf("core: import vm %d: window length lat=%d slice=%d, want %d",
			vmID, len(lat), len(slice), w)
	}
	if observed < 0 {
		return fmt.Errorf("core: import vm %d: negative observed %d", vmID, observed)
	}
	for i := 0; i < w; i++ {
		if lat[i] < 0 {
			return fmt.Errorf("core: import vm %d: negative latency %v at index %d", vmID, lat[i], i)
		}
		if slice[i] <= 0 {
			return fmt.Errorf("core: import vm %d: non-positive slice %v at index %d", vmID, slice[i], i)
		}
	}
	c.vms[vmID] = &vmState{
		lat:      append([]sim.Time(nil), lat...),
		slice:    append([]sim.Time(nil), slice...),
		observed: observed,
	}
	return nil
}
