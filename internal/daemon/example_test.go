package daemon_test

import (
	"fmt"
	"io"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// Example runs the control loop as a 1-node fleet over a three-period
// trace — the integration shape of a dom0 deployment.
func Example() {
	src := &daemon.SliceSource{Periods: [][]daemon.VMSample{
		{{ID: 1, AvgSpinLatency: 1 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true}},
		{{ID: 1, AvgSpinLatency: 3 * sim.Millisecond, Parallel: true}},
	}}
	act := daemon.WriterActuator{W: io.Discard}
	d := daemon.NewFleet(core.DefaultConfig(), src, act, daemon.FleetOptions{Node: daemon.DefaultOptions()})
	if err := d.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("periods=%d slice=%v\n", d.Periods(), d.LastSlices(0)[1])
	// Output: periods=3 slice=12.000ms
}
