package vmm

import (
	"atcsched/internal/core"
	"atcsched/internal/metrics"
	"atcsched/internal/sim"
)

// SpinMonitor accumulates per-VM spinlock latency. It keeps both a
// lifetime view (for the evaluation harness) and a per-scheduling-period
// accumulator that schedulers sample and reset every period — the paper's
// "average spinlock latency of VM during the (i-1)th scheduling period".
type SpinMonitor struct {
	lifetime metrics.Welford
	// period accumulators, reset by SamplePeriod.
	periodSum   sim.Time
	periodCount int64
}

// Record notes one completed lock acquisition that waited for lat.
// Uncontended acquisitions record zero, which keeps the per-period
// average meaningful (ATC's "latency remains zero" branch).
func (m *SpinMonitor) Record(lat sim.Time) {
	m.lifetime.Add(float64(lat))
	m.periodSum += lat
	m.periodCount++
}

// SamplePeriod returns the mean latency of the acquisitions recorded
// since the previous call (0 when there were none) and resets the period
// accumulator.
func (m *SpinMonitor) SamplePeriod() sim.Time {
	if m.periodCount == 0 {
		return 0
	}
	avg := m.periodSum / sim.Time(m.periodCount)
	m.periodSum = 0
	m.periodCount = 0
	return avg
}

// LifetimeMean returns the mean latency across the whole run.
func (m *SpinMonitor) LifetimeMean() sim.Time { return sim.Time(m.lifetime.Mean()) }

// LifetimeCount returns the number of acquisitions recorded.
func (m *SpinMonitor) LifetimeCount() int64 { return m.lifetime.N() }

// LifetimeSum returns the total time spent waiting on spinlocks.
func (m *SpinMonitor) LifetimeSum() sim.Time { return sim.Time(m.lifetime.Sum()) }

// MonitorVerdict is a monitor-tap decision for one sample (see
// World.SetMonitorTap): the sample may be suppressed entirely (Drop),
// replaced by the previously reported value and sequence number
// (Stale), or perturbed by additive Noise.
type MonitorVerdict struct {
	Drop  bool
	Stale bool
	Noise sim.Time
}

// SampleSpinPeriod is the fault-aware monitoring path: it samples the
// VM's per-period spin latency like SpinMon.SamplePeriod, routed
// through the world's monitor tap when one is installed. It returns
// the (possibly perturbed) average, a sequence number that advances
// only on fresh readings — consumers detect stale data by a repeated
// sequence — and ok=false when the sample was dropped. The underlying
// period accumulator is consumed even when the verdict suppresses the
// reading: a faulty monitoring path loses data, it does not defer it.
func (vm *VM) SampleSpinPeriod() (avg sim.Time, seq uint64, ok bool) {
	raw := vm.SpinMon.SamplePeriod()
	tap := vm.node.world.monitorTap
	if tap == nil {
		vm.monSeq++
		vm.monLastVal, vm.monLastSeq = raw, vm.monSeq
		return raw, vm.monSeq, true
	}
	v := tap(vm)
	switch {
	case v.Drop:
		return 0, 0, false
	case v.Stale:
		if vm.monLastSeq == 0 {
			// Nothing previous to repeat: indistinguishable from a dropout.
			return 0, 0, false
		}
		return vm.monLastVal, vm.monLastSeq, true
	}
	raw += v.Noise
	if raw < 0 {
		raw = 0
	}
	vm.monSeq++
	vm.monLastVal, vm.monLastSeq = raw, vm.monSeq
	return raw, vm.monSeq, true
}

// SpinSample is SampleSpinPeriod as the controller's sample for the VM:
// its class and admin slice with the period's reading, and ok=false when
// the sample was dropped.
func (vm *VM) SpinSample() (core.Sample, bool) {
	avg, seq, ok := vm.SampleSpinPeriod()
	return core.Sample{ID: vm.id, AvgSpinLatency: avg, Parallel: vm.class == ClassParallel, AdminSlice: vm.AdminSlice, Seq: seq}, ok
}
