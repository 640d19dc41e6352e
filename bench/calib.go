package main

import (
	"container/heap"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark runs on shared virtual machines. There a fixed loop's wall
// time varies by 14–21% from one run of the loop to the next, much of it
// time the hypervisor gives the virtual CPUs to other guests, while its
// CPU time varies by 6–10%. CPU time still drifts with the host's load,
// by up to 18% between sets of runs an hour apart. The gated host times
// are therefore CPU times at a reference host speed: between reps the
// parent process measures the CPU time of a fixed reference workload,
// written against the standard library only so that no change to the
// program can move it, and each rep's CPU times are scaled by refNominal
// over the mean of the two measurements that bracket it (README.md, Noise
// and bounds).

// cpuNow is the CPU time, user and system, the process has used so far on
// all its threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refNominal is the CPU time of one reference round on the reference
// host, on which a scaled CPU time equals the measured one.
const refNominal = 0.040

// refRounds is how many rounds one measurement of the reference runs; it
// reports their median.
const refRounds = 7

// refSink keeps the compiler from dropping the reference work.
var refSink atomic.Uint64

// hostRef measures the reference workload: refRounds rounds, each running
// refWork on one goroutine per CPU, as the workloads load every CPU. It
// returns the median CPU time of a round in seconds.
func hostRef() float64 {
	n := runtime.NumCPU()
	rounds := make([]float64, refRounds)
	for r := range rounds {
		c := cpuNow()
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				refSink.Add(refWork(seed))
			}(uint64(g + 1))
		}
		wg.Wait()
		rounds[r] = (cpuNow() - c).Seconds()
	}
	return median(rounds)
}

// refRecord is the reference's stand-in for a snapshot record.
type refRecord struct {
	ID     int               `json:"id"`
	Name   string            `json:"name"`
	Slices []float64         `json:"slices"`
	Seen   map[string]uint64 `json:"seen"`
}

// refWork is one round of the reference workload: the kinds of work the
// benchmark's workloads spend their time on (an event heap, map updates,
// JSON encoding and decoding of records, sorting), at fixed sizes.
func refWork(seed uint64) uint64 {
	x := xorshift(seed * 0x9e3779b97f4a7c15)
	var acc uint64

	h := make(refHeap, 0, 4096)
	for i := 0; i < 4096; i++ {
		heap.Push(&h, x.next())
	}
	for i := 0; i < 40000; i++ {
		acc += heap.Pop(&h).(uint64)
		heap.Push(&h, x.next())
	}

	m := make(map[uint64]uint64)
	for i := 0; i < 40000; i++ {
		m[x.next()%16384] += uint64(i)
	}
	acc += uint64(len(m))

	recs := make([]refRecord, 256)
	for i := range recs {
		r := &recs[i]
		r.ID, r.Name = i, "vm"
		r.Slices = make([]float64, 8)
		for j := range r.Slices {
			r.Slices[j] = float64(x.next()%30000) / 1000
		}
		r.Seen = map[string]uint64{"spins": x.next() % 1000, "rounds": x.next() % 1000}
	}
	b, _ := json.Marshal(recs) // plain data: cannot fail
	var back []refRecord
	if err := json.Unmarshal(b, &back); err == nil {
		acc += uint64(len(back))
	}

	xs := make([]float64, 16384)
	for i := range xs {
		xs[i] = float64(x.next())
	}
	sort.Float64s(xs)
	return acc + uint64(xs[len(xs)/2])
}

// refHeap is a min-heap of deadlines.
type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(v any)        { *h = append(*h, v.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
