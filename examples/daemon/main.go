// Daemon: use one node's ATC controller (the paper's Algorithms 1-2) as
// a pure library against a mock actuator — the shape of a dom0 userspace
// deployment. A synthetic contention episode drives the slice down to
// the 0.3 ms threshold and back to the 30 ms default.
package main

import (
	"fmt"

	"atcsched"
	"atcsched/internal/sim"
)

func main() {
	ctl := atcsched.NewController(atcsched.DefaultControlConfig())
	const vmID = 1

	episode := func(period int) sim.Time {
		switch {
		case period < 3:
			return 0
		case period < 14: // rising contention
			return sim.Time(period) * sim.Millisecond
		case period < 20: // decaying
			return sim.Time(20-period) * 500 * sim.Microsecond
		default:
			return 0
		}
	}

	fmt.Println("period  avg spin latency  ->  next slice")
	for p := 0; p < 32; p++ {
		lat := episode(p)
		slices := ctl.Decide([]atcsched.Sample{{ID: vmID, AvgSpinLatency: lat, Parallel: true}}, false)
		fmt.Printf("%6d  %16v  ->  %v\n", p, lat, slices[vmID])
		ctl.Commit() // the mock actuator always lands
	}
	fmt.Println("\nthe slice walks down by α=6ms, refines by β=0.3ms toward the")
	fmt.Println("0.3ms threshold under contention, and snaps back to the 30ms")
	fmt.Println("default after three zero-latency periods (Algorithm 1).")
}
