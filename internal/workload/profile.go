// Package workload provides the application models the evaluation runs:
// BSP-structured parallel applications calibrated to the six NPB kernels
// the paper uses (lu, is, sp, bt, mg, cg, classes A/B/C), and the
// non-parallel suite (SPEC-CPU-like jobs, stream, bonnie++-like disk
// I/O, ping, a web server with an httperf-like closed-loop client).
//
// A parallel application runs one process per VCPU across a virtual
// cluster. Every iteration is compute → intra-VM spinlock sections →
// cross-VM message exchange (the BSP superstep). The per-application
// numbers are calibrated to the kernels' published character — is is
// communication-dominated, bt/sp compute-heavy, lu fine-grained — which
// is what determines how strongly each responds to time-slice control.
package workload

import (
	"fmt"

	"atcsched/internal/sim"
)

// CommPattern is a cross-VM exchange topology.
type CommPattern int

// Communication patterns used by the NPB-like kernels.
const (
	// PatternNone performs no cross-VM communication (single-VM runs).
	PatternNone CommPattern = iota
	// PatternRing sends to the next VM and receives from the previous
	// (lu's pipelined wavefront).
	PatternRing
	// PatternNeighbor exchanges with both ring neighbours (sp/bt ADI
	// sweeps).
	PatternNeighbor
	// PatternAllToAll exchanges with every other VM (is's key
	// redistribution).
	PatternAllToAll
	// PatternButterfly exchanges with the 2^(iter mod log2 n) partner
	// (mg's V-cycle halving).
	PatternButterfly
	// PatternStride sends to (i+s)th and receives from (i-s)th VM with
	// an iteration-varying stride (cg's irregular sparse exchanges).
	PatternStride
)

// String returns the pattern name.
func (p CommPattern) String() string {
	switch p {
	case PatternNone:
		return "none"
	case PatternRing:
		return "ring"
	case PatternNeighbor:
		return "neighbor"
	case PatternAllToAll:
		return "all-to-all"
	case PatternButterfly:
		return "butterfly"
	case PatternStride:
		return "stride"
	default:
		return fmt.Sprintf("CommPattern(%d)", int(p))
	}
}

// sendTo appends to buf the VM indices process vmIdx sends to at
// iteration it and returns the extended slice.
func (p CommPattern) sendTo(buf []int, it, vmIdx, n int) []int {
	if n <= 1 {
		return buf
	}
	switch p {
	case PatternNone:
		return buf
	case PatternRing:
		return append(buf, (vmIdx+1)%n)
	case PatternNeighbor:
		if n == 2 {
			return append(buf, (vmIdx+1)%n)
		}
		return append(buf, (vmIdx+1)%n, (vmIdx-1+n)%n)
	case PatternAllToAll:
		for j := 0; j < n; j++ {
			if j != vmIdx {
				buf = append(buf, j)
			}
		}
		return buf
	case PatternButterfly:
		bits := 0
		for 1<<(bits+1) <= n {
			bits++
		}
		if bits == 0 {
			return buf // unreachable for n >= 2; kept for safety
		}
		partner := vmIdx ^ (1 << (it % bits))
		if partner >= n {
			// No partner this phase (non-power-of-two cluster edge);
			// skipping keeps the exchange symmetric.
			return buf
		}
		return append(buf, partner)
	case PatternStride:
		stride := 1 + it%(n-1)
		return append(buf, (vmIdx+stride)%n)
	default:
		panic(fmt.Sprintf("workload: unknown pattern %d", int(p)))
	}
}

// recvFrom appends to buf the VM indices process vmIdx receives from at
// iteration it — the mirror of sendTo — and returns the extended slice.
func (p CommPattern) recvFrom(buf []int, it, vmIdx, n int) []int {
	if n <= 1 {
		return buf
	}
	switch p {
	case PatternNone:
		return buf
	case PatternRing:
		return append(buf, (vmIdx-1+n)%n)
	case PatternNeighbor:
		if n == 2 {
			return append(buf, (vmIdx+1)%n)
		}
		return append(buf, (vmIdx-1+n)%n, (vmIdx+1)%n)
	case PatternAllToAll, PatternButterfly:
		return p.sendTo(buf, it, vmIdx, n) // symmetric patterns
	case PatternStride:
		stride := 1 + it%(n-1)
		return append(buf, (vmIdx-stride+n)%n)
	default:
		panic(fmt.Sprintf("workload: unknown pattern %d", int(p)))
	}
}

// Class scales a profile the way NPB problem classes do.
type Class int

// NPB problem classes used in the paper (B for the main runs, C for the
// Figure 8 cache study).
const (
	ClassA Class = iota
	ClassB
	ClassC
)

// String returns "A", "B" or "C".
func (c Class) String() string {
	switch c {
	case ClassA:
		return "A"
	case ClassB:
		return "B"
	case ClassC:
		return "C"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// AppProfile parameterizes one BSP application.
type AppProfile struct {
	// Name is the kernel name, e.g. "lu.B".
	Name string
	// ComputePerIter is the mean warm compute time per process per
	// iteration.
	ComputePerIter sim.Time
	// ComputeJitter is the uniform jitter fraction on compute segments.
	ComputeJitter float64
	// LockOpsPerIter is the number of spinlock critical sections per
	// process per iteration (intra-VM shared-memory synchronization).
	LockOpsPerIter int
	// CSLength is the critical-section hold time.
	CSLength sim.Time
	// LocksPerVM is the number of distinct guest locks contended.
	LocksPerVM int
	// Pattern and MsgSize describe the cross-VM exchange per iteration.
	Pattern CommPattern
	MsgSize int
	// RecvPoll is the MPI progress-engine busy-poll budget per receive:
	// the rank spins on the mailbox for up to RecvPoll before yielding
	// the VCPU (0 blocks immediately, < 0 spins forever). Tightly-coupled
	// MPI applications poll aggressively, which is what makes them burn
	// CPU during synchronization phases on over-committed hosts.
	RecvPoll sim.Time
	// IntraVMBarrier adds a spin-barrier across the ranks of each VM at
	// the end of every iteration: arrival is a lock-protected counter and
	// waiting ranks poll it under the lock — the paper's §II-B picture of
	// spinlock-mediated synchronization phases, with heavy lock traffic.
	IntraVMBarrier bool
	// BarrierPollGap is the compute between barrier polls (default 20µs
	// when IntraVMBarrier is set).
	BarrierPollGap sim.Time
	// Iterations is the supersteps per run.
	Iterations int
	// Footprint and ColdRate give the per-process cache profile.
	Footprint int64
	ColdRate  float64
}

// Validate checks a profile for consistency.
func (p AppProfile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty profile name")
	case p.ComputePerIter < 0 || p.CSLength < 0:
		return fmt.Errorf("workload: negative durations in %s", p.Name)
	case p.ComputeJitter < 0 || p.ComputeJitter > 1:
		return fmt.Errorf("workload: jitter out of [0,1] in %s", p.Name)
	case p.LockOpsPerIter < 0 || p.MsgSize < 0:
		return fmt.Errorf("workload: negative counts in %s", p.Name)
	case p.LockOpsPerIter > 0 && p.LocksPerVM <= 0:
		return fmt.Errorf("workload: %s locks without LocksPerVM", p.Name)
	case p.Iterations <= 0:
		return fmt.Errorf("workload: %s needs iterations", p.Name)
	case p.Footprint < 0 || p.ColdRate <= 0 || p.ColdRate > 1:
		return fmt.Errorf("workload: bad cache profile in %s", p.Name)
	}
	return nil
}

// MessagesPerRound returns the number of cross-VM packets one complete
// round of the profile posts across a virtual cluster of nVMs VMs with
// ranks processes each. The count is a pure function of the
// communication pattern, so it is the analytic conservation target the
// property harness checks every scheduler against.
func (p AppProfile) MessagesPerRound(nVMs, ranks int) uint64 {
	if nVMs <= 1 || ranks <= 0 {
		return 0
	}
	var total uint64
	var buf []int
	for it := 0; it < p.Iterations; it++ {
		for vmIdx := 0; vmIdx < nVMs; vmIdx++ {
			buf = p.Pattern.sendTo(buf[:0], it, vmIdx, nVMs)
			total += uint64(len(buf) * ranks)
		}
	}
	return total
}

// NPB returns the profile for one of the paper's six kernels at the
// given class. Known kernels: lu, is, sp, bt, mg, cg.
func NPB(kernel string, class Class) AppProfile {
	var p AppProfile
	switch kernel {
	case "lu":
		// Pipelined wavefront: small compute steps, very frequent
		// fine-grained synchronization — the most slice-sensitive kernel.
		p = AppProfile{
			ComputePerIter: 2500 * sim.Microsecond,
			LockOpsPerIter: 6,
			CSLength:       60 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternRing,
			MsgSize:        4 << 10,
			Iterations:     30,
			Footprint:      256 << 10,
			ColdRate:       0.70,
		}
	case "is":
		// Bucket sort: almost all communication (all-to-all), tiny
		// compute — the largest gains from short slices.
		p = AppProfile{
			ComputePerIter: 1200 * sim.Microsecond,
			LockOpsPerIter: 4,
			CSLength:       50 * sim.Microsecond,
			LocksPerVM:     1,
			Pattern:        PatternAllToAll,
			MsgSize:        8 << 10,
			Iterations:     12,
			Footprint:      384 << 10,
			ColdRate:       0.80,
		}
	case "sp":
		// Scalar pentadiagonal ADI: compute-heavy with neighbor sweeps.
		p = AppProfile{
			ComputePerIter: 6 * sim.Millisecond,
			LockOpsPerIter: 6,
			CSLength:       80 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternNeighbor,
			MsgSize:        12 << 10,
			Iterations:     20,
			Footprint:      320 << 10,
			ColdRate:       0.65,
		}
	case "bt":
		// Block tridiagonal: the most compute-dominated kernel.
		p = AppProfile{
			ComputePerIter: 9 * sim.Millisecond,
			LockOpsPerIter: 6,
			CSLength:       80 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternNeighbor,
			MsgSize:        12 << 10,
			Iterations:     18,
			Footprint:      320 << 10,
			ColdRate:       0.65,
		}
	case "mg":
		// Multigrid V-cycles: mixed compute and butterfly exchanges.
		p = AppProfile{
			ComputePerIter: 3500 * sim.Microsecond,
			LockOpsPerIter: 6,
			CSLength:       60 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternButterfly,
			MsgSize:        8 << 10,
			Iterations:     18,
			Footprint:      448 << 10,
			ColdRate:       0.70,
		}
	case "cg":
		// Conjugate gradient: irregular sparse exchanges, frequent locks.
		p = AppProfile{
			ComputePerIter: 2800 * sim.Microsecond,
			LockOpsPerIter: 6,
			CSLength:       60 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternStride,
			MsgSize:        8 << 10,
			Iterations:     24,
			Footprint:      384 << 10,
			ColdRate:       0.70,
		}
	case "ep":
		// Embarrassingly parallel (NPB member beyond the paper's six):
		// almost no synchronization — a control workload on which slice
		// adaptation should neither help nor hurt.
		p = AppProfile{
			ComputePerIter: 8 * sim.Millisecond,
			LockOpsPerIter: 0,
			CSLength:       0,
			LocksPerVM:     0,
			Pattern:        PatternNone,
			MsgSize:        0,
			Iterations:     12,
			Footprint:      128 << 10,
			ColdRate:       0.85,
		}
	case "ft":
		// 3-D FFT (NPB member beyond the paper's six): large all-to-all
		// transposes separated by substantial compute.
		p = AppProfile{
			ComputePerIter: 5 * sim.Millisecond,
			LockOpsPerIter: 4,
			CSLength:       60 * sim.Microsecond,
			LocksPerVM:     2,
			Pattern:        PatternAllToAll,
			MsgSize:        16 << 10,
			Iterations:     10,
			Footprint:      512 << 10,
			ColdRate:       0.65,
		}
	default:
		panic(fmt.Sprintf("workload: unknown NPB kernel %q", kernel))
	}
	p.ComputeJitter = 0.25
	p.RecvPoll = 5 * sim.Millisecond
	switch class {
	case ClassA:
		p.ComputePerIter /= 2
		p.MsgSize /= 2
		p.Footprint /= 2
	case ClassB:
		// reference values above
	case ClassC:
		p.ComputePerIter = p.ComputePerIter * 5 / 2
		p.MsgSize *= 2
		p.Footprint *= 3
		p.Iterations = p.Iterations * 3 / 2
	default:
		panic(fmt.Sprintf("workload: unknown class %v", class))
	}
	p.Name = kernel + "." + class.String()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// HollowRing is the kubemark-style per-node kernel of hollow worlds
// (cluster.HollowConfig): short compute, one ring message per iteration,
// no lock traffic, blocking receives. The ring makes every iteration
// cross node boundaries, exercising the shard synchronization path at
// full fan-out, while the guests stay cheap enough that thousand-node
// runs measure the simulator or the control plane, not the kernels.
func HollowRing() AppProfile {
	return AppProfile{
		Name:           "hollow-ring",
		ComputePerIter: 200 * sim.Microsecond,
		Pattern:        PatternRing,
		MsgSize:        4 << 10,
		Iterations:     50,
		Footprint:      4 << 20,
		ColdRate:       0.01,
	}
}

// NPBKernels lists the six kernels the paper evaluates.
func NPBKernels() []string { return []string{"lu", "is", "sp", "bt", "mg", "cg"} }

// ExtraKernels lists the additional NPB members this reproduction also
// models (not part of the paper's evaluation).
func ExtraKernels() []string { return []string{"ep", "ft"} }
