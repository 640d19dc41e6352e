package main

import (
	"io"

	"atcsched/internal/daemon"
	"atcsched/internal/rng"
	"atcsched/internal/sim"
)

// synthFleet is a FleetSource replaying pre-generated spin-latency
// samples, so the fleet-synthetic workload measures the control plane with
// no simulated world behind it. Every node hosts vmsPerNode VMs; the last
// is non-parallel. Samples carry a fresh sequence number every period.
type synthFleet struct {
	nodes, periods int
	lat            []uint32 // µs, indexed [(period*nodes+node)*vmsPerNode+vm]
	period         int
	batches        []daemon.NodeBatch
	samples        []daemon.VMSample
}

const vmsPerNode = 4

// newSynthFleet generates every period's samples from seed. Each VM
// alternates contention episodes, in which its latency random-walks
// upward, with quiet spells of zero latency, so the controller takes both
// Algorithm 1's shortening branch and its relax-to-default branch.
func newSynthFleet(nodes, periods int, seed uint64) *synthFleet {
	s := &synthFleet{
		nodes:   nodes,
		periods: periods,
		lat:     make([]uint32, periods*nodes*vmsPerNode),
		batches: make([]daemon.NodeBatch, nodes),
		samples: make([]daemon.VMSample, nodes*vmsPerNode),
	}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vmsPerNode; v++ {
			r := rng.NewStream(seed, uint64(n*vmsPerNode+v))
			quiet := r.Intn(2) == 0
			left := 1 + r.Intn(40)
			lat := 0.0
			for p := 0; p < periods; p++ {
				if left == 0 {
					quiet = !quiet
					left = 5 + r.Intn(40)
				}
				left--
				if quiet {
					lat = 0
				} else {
					lat = min(max(lat+r.Normal(20, 60), 1), 5000)
				}
				s.lat[(p*nodes+n)*vmsPerNode+v] = uint32(lat)
			}
		}
	}
	return s
}

// SampleFleet returns the next period's batches. The batch and sample
// slices are reused every period: Fleet.Step has finished with them by
// the time it asks for the next period.
func (s *synthFleet) SampleFleet() ([]daemon.NodeBatch, error) {
	if s.period >= s.periods {
		return nil, io.EOF
	}
	base := s.period * s.nodes * vmsPerNode
	s.period++
	for n := range s.batches {
		smp := s.samples[n*vmsPerNode : (n+1)*vmsPerNode]
		for v := range smp {
			smp[v] = daemon.VMSample{
				ID:             n*vmsPerNode + v,
				AvgSpinLatency: sim.Time(s.lat[base+n*vmsPerNode+v]) * sim.Microsecond,
				Parallel:       v < vmsPerNode-1,
				Seq:            uint64(s.period),
			}
		}
		s.batches[n] = daemon.NodeBatch{Node: n, Samples: smp}
	}
	return s.batches, nil
}

// nopActuator accepts every decision: the synthetic fleet has no world to
// actuate.
type nopActuator struct{}

func (nopActuator) ApplyNode(int, map[int]sim.Time) error { return nil }
