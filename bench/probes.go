package main

import (
	"runtime/metrics"
	"time"

	"atcsched/internal/cachemodel"
	"atcsched/internal/core"
	"atcsched/internal/netmodel"
	"atcsched/internal/sim"
)

// The probes replay workload-shaped inputs into one layer at a time, so a
// per-layer cost can be read without the layers above it. Each runs a
// fixed amount of work in probeBatches batches and reports the median
// batch cost per unit of work.

const probeBatches = 5

// shape is what a workload tells the probes about the inputs its layers
// see.
type shape struct {
	pending     int   // engine events pending at the end of the run
	nodes       int   // nodes on the fabric / in the fleet
	msgSize     int   // bytes per BSP message
	footprint   int64 // working set per VCPU
	coldRate    float64
	vcpusPerCPU int // cache clients sharing one PCPU
}

// probeBatch runs fn probeBatches times and returns the median time of
// one batch divided by units, in nanoseconds.
func probeBatch(units int, fn func()) float64 {
	var per []float64
	for i := 0; i < probeBatches; i++ {
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(units))
	}
	return median(per)
}

// xorshift is the probes' input generator: cheap enough not to show in a
// nanoseconds-per-event figure.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// probeSim fires events on an engine holding depth pending events. Every
// fired event schedules its successor a pseudo-random delay ahead, and
// every fourth also arms and cancels a timer, as slice timers are.
func probeSim(depth int) float64 {
	const events = 200_000
	e := sim.New()
	x := xorshift(0x9e3779b97f4a7c15)
	nop := func() {}
	n := 0
	var fire func()
	fire = func() {
		n++
		e.Schedule(sim.Time(1+x.next()%uint64(sim.Millisecond)), fire)
		if n%4 == 0 {
			e.Cancel(e.Schedule(sim.Time(x.next()%uint64(sim.Millisecond)), nop))
		}
	}
	for i := 0; i < max(depth, 1); i++ {
		e.Schedule(sim.Time(x.next()%uint64(sim.Millisecond)), fire)
	}
	return probeBatch(events, func() {
		for i := 0; i < events; i++ {
			e.Step()
		}
	})
}

// probeNet passes a message around a ring of nodes on a serial fabric:
// each delivery triggers the next send, so the cost per send includes the
// fabric's booking and the engine events it schedules.
func probeNet(nodes, size int) float64 {
	const sends = 100_000
	nodes = max(nodes, 2)
	e := sim.New()
	f := netmodel.New(e, nodes, netmodel.DefaultConfig())
	left := 0
	deliver := make([]func(), nodes)
	for i := range deliver {
		dst := (i + 1) % nodes // deliver[i] runs when a message from i lands
		deliver[i] = func() {
			if left > 0 {
				left--
				f.Send(dst, (dst+1)%nodes, size, deliver[dst])
			}
		}
	}
	return probeBatch(sends, func() {
		left = sends
		f.Send(0, 1, size, deliver[0])
		e.Run()
	})
}

// probeCache round-robins CPU time over the clients sharing one PCPU's
// cache, one 0.3 ms slice (the ATC minimum) at a time, so every switch
// refills part of the incoming working set.
func probeCache(clients int, footprint int64, coldRate float64) float64 {
	const advances = 200_000
	c := cachemodel.New(cachemodel.DefaultConfig())
	cls := make([]*cachemodel.Client, max(clients, 1))
	for i := range cls {
		cls[i] = c.NewClient(footprint, coldRate)
	}
	slice := 300 * sim.Microsecond
	return probeBatch(advances, func() {
		for i := 0; i < advances; i++ {
			c.Advance(cls[i%len(cls)], slice)
		}
	})
}

// probeCore drives one core.Controller per node through the synthetic
// fleet's latency walks, doing per period exactly the controller work of
// the fleet's decide step: Observe every VM, then NodeSlices. It returns
// ns and heap allocations per VM-period.
func probeCore(nodes int, seed uint64) (nsPerVM, allocsPerVM float64) {
	const periods = 10
	src := newSynthFleet(nodes, periods*probeBatches, seed)
	ctls := make([]*core.Controller, nodes)
	last := make([]map[int]sim.Time, nodes)
	for i := range ctls {
		ctls[i] = core.NewController(core.DefaultConfig())
		last[i] = map[int]sim.Time{}
	}
	infos := make([]core.VMInfo, 0, vmsPerNode)
	a0 := heapAllocs()
	ns := probeBatch(nodes*vmsPerNode*periods, func() {
		for p := 0; p < periods; p++ {
			batches, _ := src.SampleFleet()
			for _, b := range batches {
				c := ctls[b.Node]
				infos = infos[:0]
				for _, s := range b.Samples {
					inForce, ok := last[b.Node][s.ID]
					if !ok {
						inForce = c.Config().Default
					}
					c.Observe(s.ID, s.AvgSpinLatency, inForce)
					infos = append(infos, core.VMInfo{ID: s.ID, Parallel: s.Parallel})
				}
				last[b.Node] = c.NodeSlices(infos)
			}
		}
	})
	allocs := float64(heapAllocs()-a0) / float64(nodes*vmsPerNode*periods*probeBatches)
	return ns, allocs
}

// runtime/metrics samples read by the benchmark.
const (
	allocObjects = "/gc/heap/allocs:objects"
	allocBytes   = "/gc/heap/allocs:bytes"
	gcCycles     = "/gc/cycles/total:gc-cycles"
)

// readRuntime returns the current value of each named runtime metric.
func readRuntime(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 { return readRuntime(allocObjects)[0] }
