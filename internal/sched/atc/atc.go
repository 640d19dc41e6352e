// Package atc plugs the paper's Adaptive Time-slice Control model
// (internal/core) into the credit scheduling core: every 30 ms scheduling
// period it samples each guest VM's average spinlock latency, decides
// through the node's core.Node (the controller the daemon runs), and
// writes the resulting per-VM slices into the credit core's slice table,
// which serves them to the dispatcher (dom0 keeps the default).
package atc

import (
	"fmt"

	"atcsched/internal/core"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Signal selects where ATC reads its per-period overhead sample from.
type Signal int

// The available monitoring signals.
const (
	// SignalSpinlock is the paper's intrusive method: the guest kernel
	// reports its average spinlock latency per period.
	SignalSpinlock Signal = iota
	// SignalSchedWait is the non-intrusive alternative sketched in the
	// paper's future work: the hypervisor uses each VM's mean runqueue
	// wait (runnable → dispatched), which it can observe without any
	// guest cooperation and which tracks the same slice-length dynamics.
	SignalSchedWait
)

// String returns the signal name.
func (s Signal) String() string {
	switch s {
	case SignalSpinlock:
		return "spinlock"
	case SignalSchedWait:
		return "sched-wait"
	default:
		return fmt.Sprintf("Signal(%d)", int(s))
	}
}

// Options configures the ATC scheduler.
type Options struct {
	// Credit configures the underlying credit core. Credit.TimeSlice is
	// the default slice DEFAULT in Algorithm 1.
	Credit credit.Options `json:"credit"`
	// Control tunes the ATC controller (α, β, threshold, window).
	Control core.Params `json:"control"`
	// AutoDetect classifies VMs as parallel when they show contended
	// spinlock activity within the last autoDetectWindow periods, instead
	// of trusting VM.Class. Mirrors the paper's future-work direction of
	// less intrusive classification.
	AutoDetect bool `json:"autoDetect"`
	// Monitor selects the overhead signal (default: the paper's
	// intrusive spinlock latency; 1 selects the scheduling-wait proxy,
	// whose samples at or below schedWaitNoiseFloor count as zero).
	Monitor Signal `json:"monitor"`
	// AdaptiveNonParallel enables the paper's first future-work item: a
	// more flexible treatment of non-parallel VMs. A non-parallel VM
	// whose smoothed I/O event rate reaches latencySensitiveRate is
	// given nonParallelShort instead of the default slice, improving its
	// interrupt service without an administrator in the loop. An
	// explicit AdminSlice still wins.
	AdaptiveNonParallel bool `json:"adaptiveNonParallel"`
	// DisableNodeMinimum ablates Algorithm 2: each parallel VM keeps its
	// own Algorithm-1 slice instead of the node-wide minimum.
	DisableNodeMinimum bool `json:"disableNodeMinimum"`
}

// The sampler's fixed parameters.
const (
	// autoDetectWindow is how many recent periods with contended spin
	// activity keep a VM classified as parallel under AutoDetect.
	autoDetectWindow = 10
	// schedWaitNoiseFloor: scheduling-wait samples at or below it count
	// as zero in Algorithm 1's recovery branch, since dispatch latency
	// never measures an exact zero. Spinlock samples have no floor.
	schedWaitNoiseFloor = 20 * sim.Microsecond
	// nonParallelShort is the slice of a latency-sensitive non-parallel
	// VM under AdaptiveNonParallel (the paper's example admin setting).
	nonParallelShort = 6 * sim.Millisecond
	// latencySensitiveRate is the smoothed per-period I/O event rate at
	// which a non-parallel VM counts as latency-sensitive.
	latencySensitiveRate = 2
)

// DefaultOptions returns the evaluation configuration: stock credit core
// with ATC control at the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Credit:  credit.DefaultOptions(),
		Control: core.DefaultParams(),
	}
}

// controlConfig is Control around the credit core's time slice.
func (o Options) controlConfig() core.Config {
	return core.Config{Default: o.Credit.TimeSlice, Params: o.Control}
}

// Scheduler is ATC layered over the credit core.
type Scheduler struct {
	*credit.Scheduler
	opts Options
	ctl  *core.Node
	// batch is OnPeriod's scratch: the period's fresh samples.
	batch []core.Sample
	// activity tracks, per VM id, how many periods ago contended spin
	// activity was last seen (for AutoDetect).
	activity map[int]int
	// prevAcq remembers each VM's lifetime acquisition count at the last
	// period, to detect activity.
	prevContended map[int]uint64
	// ioRate is the smoothed per-period I/O event rate per VM id, used
	// by AdaptiveNonParallel.
	ioRate map[int]float64
}

// New builds an ATC scheduler for node n.
func New(n *vmm.Node, opts Options) *Scheduler {
	return &Scheduler{
		Scheduler:     credit.New(n, opts.Credit),
		opts:          opts,
		ctl:           core.NewNode(opts.controlConfig(), core.DefaultStaleAfter),
		activity:      make(map[int]int),
		prevContended: make(map[int]uint64),
		ioRate:        make(map[int]float64),
	}
}

// Factory returns a vmm.SchedulerFactory producing ATC schedulers.
func Factory(opts Options) vmm.SchedulerFactory {
	return func(n *vmm.Node) vmm.Scheduler { return New(n, opts) }
}

// Name implements vmm.Scheduler.
func (s *Scheduler) Name() string { return "ATC" }

// Controller exposes the node's ATC controller (for tests and
// diagnostics).
func (s *Scheduler) Controller() *core.Node { return s.ctl }

// OnPeriod implements vmm.Scheduler: credit refill plus the ATC control
// step. Dropped samples are left out of the batch; an in-simulator
// actuation always lands, so every decision is committed.
func (s *Scheduler) OnPeriod(n *vmm.Node) {
	s.Scheduler.OnPeriod(n)
	guests := n.VMs()
	s.batch = s.batch[:0]
	for _, vm := range guests {
		var avg sim.Time
		var seq uint64
		fresh := true
		switch s.opts.Monitor {
		case SignalSchedWait:
			if avg = vm.SamplePeriodWait(); avg <= schedWaitNoiseFloor {
				avg = 0
			}
		default:
			// The fault-aware monitoring path: dropped, stale and noisy
			// readings come back as a real flaky guest agent would
			// report them, and the controller handles each.
			avg, seq, fresh = vm.SampleSpinPeriod()
		}
		parallel := vm.Class() == vmm.ClassParallel
		if s.opts.AutoDetect {
			contended := sumContended(vm)
			if contended > s.prevContended[vm.ID()] {
				s.activity[vm.ID()] = 0
			} else {
				s.activity[vm.ID()]++
			}
			s.prevContended[vm.ID()] = contended
			parallel = s.activity[vm.ID()] < autoDetectWindow
		}
		admin := vm.AdminSlice
		if s.opts.AdaptiveNonParallel {
			r := 0.5*float64(vm.SamplePeriodIOEvents()) + 0.5*s.ioRate[vm.ID()]
			s.ioRate[vm.ID()] = r
			if admin == 0 && vm.Class() == vmm.ClassNonParallel && r >= latencySensitiveRate {
				admin = nonParallelShort
			}
		}
		if fresh {
			s.batch = append(s.batch, core.Sample{
				ID: vm.ID(), AvgSpinLatency: avg, Parallel: parallel, AdminSlice: admin, Seq: seq,
			})
		}
	}
	decided := s.ctl.Decide(s.batch, s.opts.DisableNodeMinimum)
	for _, vm := range guests {
		if sl, ok := decided[vm.ID()]; ok && s.SetSlice(vm, sl) {
			n.TraceSlice(vm, sl)
		}
	}
	s.ctl.Commit()
}

func sumContended(vm *vmm.VM) uint64 {
	var c uint64
	for _, l := range vm.Locks() {
		c += l.Contended()
	}
	return c
}
