// Package proptest is the simulator's randomized correctness harness: a
// seed-driven scenario generator plus a property battery that every
// generated world must survive under every scheduling approach.
//
// The simulator is the measurement instrument behind every claim this
// repository reproduces, so its correctness ceiling is the repo's
// correctness ceiling. The battery therefore checks, for each generated
// scenario:
//
//   - invariants: World.Audit passes periodically mid-run (via the
//     cluster audit hook) and at shutdown;
//   - liveness and conservation: every measured run completes exactly
//     its target rounds, every parallel VCPU retires its process and
//     idles (no VCPU left spinning or waiting), the audited clock is
//     monotone, and each virtual cluster posts exactly the analytic
//     packet count implied by its communication pattern;
//   - determinism: replaying the same seed yields byte-identical result
//     structs, scheduling traces and fault-injection reports;
//   - differential agreement: all approaches (CR, CS, BS, DSS, VS, HY,
//     ATC) complete the same logical work on the same scenario.
//
// A slice of generated scenarios carries a fault-injection schedule
// (stragglers, packet loss, bandwidth degradation, monitor faults); the
// full battery must hold under faults too — loss is modeled as delayed
// retransmission, so conservation and liveness survive.
//
// Failures reproduce from a single generator seed (see the sweep test's
// -proptest.seed flag); Shrink minimizes a failing Spec to a smaller
// one that still fails.
package proptest

import (
	"fmt"

	"atcsched/internal/fault"
	"atcsched/internal/rng"
	"atcsched/internal/scenario"
	"atcsched/internal/sched/registry"
	"atcsched/internal/workload"
)

// Spec is one generated scenario: a scenario.Spec with Scheduler.Kind
// left for the approach under test, so the same Spec runs differentially
// across all approaches, plus the battery's own two knobs. It marshals
// as scenario JSON with fleetNodes and telemetry beside it, so failing
// cases can be reported, minimized and replayed.
type Spec struct {
	scenario.Spec
	// FleetNodes, when positive, additionally runs the fleet
	// control-plane kill-restore property on a separate hollow world of
	// that many nodes: a fleet daemon killed mid-run and restored from
	// its snapshot must converge to a byte-identical control-state
	// snapshot versus an uninterrupted run, including through a
	// daemon-crash blackout window.
	FleetNodes int `json:"fleetNodes,omitempty"`
	// Telemetry attaches a full telemetry plane to every run. The plane
	// must be invisible to the simulation — fingerprints are byte
	// identical with or without it — so the battery runs a slice of
	// scenarios instrumented to keep that contract honest.
	Telemetry bool `json:"telemetry,omitempty"`
}

// Generator hard bounds, tighter than the scenario caps: Validate
// rejects anything outside them, so fuzz-derived Specs cannot blow up
// memory or wall time.
const (
	maxNodes      = 8
	maxPCPUs      = 16
	maxClusters   = 4
	maxVMs        = 8
	maxVCPUs      = 16
	maxRounds     = 5
	maxIterations = 20
	maxJobs       = 8
	maxHorizonSec = 3600
	maxShards     = 8
	// maxFleetNodes bounds the hollow fleet in the kill-restore
	// property; the control plane scales far beyond this, but a
	// property-test world stays tiny.
	maxFleetNodes = 8
	// maxFaultWindows is tighter than the fault package's own cap: a
	// property-test world is tiny, and a handful of windows already
	// exercises every hook.
	maxFaultWindows = 8
)

// Validate checks a Spec against the generator's hard bounds and then
// the scenario's own rules (on a copy: s is left unchanged).
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 1 || s.Nodes > maxNodes:
		return fmt.Errorf("proptest: nodes %d out of [1,%d]", s.Nodes, maxNodes)
	case s.PCPUsPerNode < 1 || s.PCPUsPerNode > maxPCPUs:
		return fmt.Errorf("proptest: pcpusPerNode %d out of [1,%d]", s.PCPUsPerNode, maxPCPUs)
	case s.Scheduler.FixedSliceMs < 0 || s.Scheduler.FixedSliceMs > 100:
		return fmt.Errorf("proptest: fixed slice %vms out of [0,100]", s.Scheduler.FixedSliceMs)
	case len(s.VirtualClusters) < 1 || len(s.VirtualClusters) > maxClusters:
		return fmt.Errorf("proptest: %d clusters out of [1,%d]", len(s.VirtualClusters), maxClusters)
	case len(s.Jobs) > maxJobs:
		return fmt.Errorf("proptest: %d jobs exceeds %d", len(s.Jobs), maxJobs)
	case s.HorizonSec <= 0 || s.HorizonSec > maxHorizonSec:
		return fmt.Errorf("proptest: horizon %vs out of (0,%d]", s.HorizonSec, maxHorizonSec)
	case s.Shards < 0 || s.Shards > maxShards:
		return fmt.Errorf("proptest: shards %d out of [1,%d] (0 reads as 1)", s.Shards, maxShards)
	case s.FleetNodes < 0 || s.FleetNodes > maxFleetNodes:
		return fmt.Errorf("proptest: fleetNodes %d out of [0,%d]", s.FleetNodes, maxFleetNodes)
	}
	for i, c := range s.VirtualClusters {
		switch {
		case c.VMs < 1 || c.VMs > maxVMs:
			return fmt.Errorf("proptest: cluster %d: vms %d out of [1,%d]", i, c.VMs, maxVMs)
		case c.VCPUs < 1 || c.VCPUs > maxVCPUs:
			return fmt.Errorf("proptest: cluster %d: vcpus %d out of [1,%d]", i, c.VCPUs, maxVCPUs)
		case c.Rounds < 1 || c.Rounds > maxRounds:
			return fmt.Errorf("proptest: cluster %d: rounds %d out of [1,%d]", i, c.Rounds, maxRounds)
		case c.Iterations < 1 || c.Iterations > maxIterations:
			return fmt.Errorf("proptest: cluster %d: iterations %d out of [1,%d]", i, c.Iterations, maxIterations)
		case c.Forever || c.Background:
			// Conservation counts exactly the target rounds of every
			// cluster; a run that goes on has no such count.
			return fmt.Errorf("proptest: cluster %d: forever and background runs are not checkable", i)
		}
	}
	for i, sw := range s.Switches {
		if sw.AtSec > s.HorizonSec {
			return fmt.Errorf("proptest: policy switch %d at %vs, past horizon %vs", i, sw.AtSec, s.HorizonSec)
		}
	}
	if s.Faults != nil {
		if n := len(s.Faults.Windows); n > maxFaultWindows {
			return fmt.Errorf("proptest: %d fault windows exceeds %d", n, maxFaultWindows)
		}
		for i, w := range s.Faults.Windows {
			if w.StartSec+w.DurSec > s.HorizonSec {
				return fmt.Errorf("proptest: fault window %d ends at %vs, past horizon %vs",
					i, w.StartSec+w.DurSec, s.HorizonSec)
			}
		}
	}
	c := clone(s)
	return c.Spec.Validate()
}

// Limits bound the generator's draw ranges. The bounded gear keeps
// tier-1 sweeps fast; the deep gear (-proptest.long) explores larger
// worlds. Both stay inside the Validate hard bounds.
type Limits struct {
	Nodes      int
	PCPUs      int
	Clusters   int
	VMs        int
	VCPUs      int
	Rounds     int
	Iterations int
	Jobs       int
}

// Bounded is the tier-1 gear: tiny worlds, fast enough for ~100
// scenarios × 7 approaches inside `go test ./...`.
func Bounded() Limits {
	return Limits{Nodes: 2, PCPUs: 4, Clusters: 2, VMs: 2, VCPUs: 4, Rounds: 2, Iterations: 4, Jobs: 2}
}

// Deep is the -proptest.long gear: bigger worlds, heavier overcommit.
func Deep() Limits {
	return Limits{Nodes: 4, PCPUs: 8, Clusters: 3, VMs: 4, VCPUs: 8, Rounds: 3, Iterations: 8, Jobs: 4}
}

// fixedSliceChoices are the base-slice overrides the generator draws
// from (ms); zero keeps the scheduler default and is favoured.
var fixedSliceChoices = []float64{0, 0, 0, 0.3, 1, 5, 30}

// jobTypes are the non-parallel tenant types the generator draws from.
var jobTypes = []string{"ping", "web", "disk", "stream", "cpu"}

// classChoices weight problem classes toward the small ones.
var classChoices = []string{"A", "A", "A", "B"}

// faultKindChoices are the fault kinds the generator draws from,
// weighted toward the compute and network planes. actuator-fail is
// omitted: cluster-driven runs actuate in-sim, so it would be inert.
var faultKindChoices = []fault.Kind{
	fault.PCPUSlow, fault.PCPUSlow, fault.PCPUFreeze,
	fault.PacketLoss, fault.PacketLoss, fault.Bandwidth,
	fault.MonitorDrop, fault.MonitorNoise, fault.MonitorStale,
}

// genFaults draws a small fault schedule: short windows early in the
// run (where the measured work lives) with property-safe severities.
func genFaults(src *rng.Source, nodes int) *fault.Spec {
	fs := &fault.Spec{}
	for i, n := 0, 1+src.Intn(3); i < n; i++ {
		k := faultKindChoices[src.Intn(len(faultKindChoices))]
		w := fault.Window{
			Kind:     k,
			StartSec: 0.02 + 0.3*src.Float64(),
			DurSec:   0.05 + 0.4*src.Float64(),
		}
		scoped := false
		switch k {
		case fault.PCPUSlow:
			w.Severity = 2 + 6*src.Float64()
			scoped = true
		case fault.PCPUFreeze:
			// Freeze takes no severity; keep the stall well short of the
			// horizon so liveness is a real check, not a timeout race.
			w.DurSec = 0.05 + 0.2*src.Float64()
			scoped = true
		case fault.PacketLoss:
			w.Severity = 0.05 + 0.25*src.Float64()
			scoped = true
		case fault.Bandwidth:
			w.Severity = 0.25 + 0.7*src.Float64()
			scoped = true
		case fault.MonitorNoise:
			w.Severity = 0.05 + 0.45*src.Float64() // milliseconds
		default: // monitor drop/stale probabilities
			w.Severity = 0.2 + 0.6*src.Float64()
		}
		if scoped && src.Float64() < 0.5 {
			w.Nodes = []int{src.Intn(nodes)}
		}
		fs.Windows = append(fs.Windows, w)
	}
	return fs
}

// Generate derives a Spec from a seed, drawing every parameter from
// internal/rng so the same seed always yields the same scenario.
func Generate(seed uint64, lim Limits) Spec {
	src := rng.New(seed)
	spec := Spec{Spec: scenario.Spec{
		Seed:         seed,
		Nodes:        1 + src.Intn(lim.Nodes),
		PCPUsPerNode: 1 + src.Intn(lim.PCPUs),
		HorizonSec:   900,
	}}
	spec.Scheduler.FixedSliceMs = fixedSliceChoices[src.Intn(len(fixedSliceChoices))]
	spec.Scheduler.DisableBoost = src.Float64() < 0.1
	spec.Scheduler.DisableSteal = src.Float64() < 0.1
	kernels := append(workload.NPBKernels(), workload.ExtraKernels()...)
	for i, n := 0, 1+src.Intn(lim.Clusters); i < n; i++ {
		spec.VirtualClusters = append(spec.VirtualClusters, scenario.VCSpec{
			Kernel:     kernels[src.Intn(len(kernels))],
			Class:      classChoices[src.Intn(len(classChoices))],
			VMs:        1 + src.Intn(lim.VMs),
			VCPUs:      1 + src.Intn(lim.VCPUs),
			Rounds:     1 + src.Intn(lim.Rounds),
			Iterations: 1 + src.Intn(lim.Iterations),
		})
	}
	for i, n := 0, src.Intn(lim.Jobs+1); i < n; i++ {
		j := scenario.JobSpec{Type: jobTypes[src.Intn(len(jobTypes))], Node: src.Intn(spec.Nodes)}
		if j.Type == "cpu" {
			profs := workload.SPECProfiles()
			j.Name = profs[src.Intn(len(profs))].Name
		}
		spec.Jobs = append(spec.Jobs, j)
	}
	// A slice of scenarios exercises the registry-era features: pinned
	// heterogeneous node policies and a mid-run live policy switch.
	kinds := registry.Kinds()
	if src.Float64() < 0.15 {
		for i := 0; i < spec.Nodes; i++ {
			if src.Float64() < 0.5 {
				spec.NodePolicies = append(spec.NodePolicies, scenario.NodePolicySpec{
					Nodes: []int{i}, Kind: kinds[src.Intn(len(kinds))]})
			}
		}
	}
	if src.Float64() < 0.15 {
		sw := scenario.SwitchSpec{Kind: kinds[src.Intn(len(kinds))]}
		// Early in the run so the swap lands while measured work is live.
		sw.AtSec = 0.05 + 0.5*src.Float64()
		spec.Switches = []scenario.SwitchSpec{sw}
	}
	if src.Float64() < 0.15 {
		spec.Faults = genFaults(src, spec.Nodes)
	}
	// A slice of scenarios runs on several engine workers (counts past
	// the node count clamp down in the world builder); the rest run on
	// one.
	spec.Shards = 1
	if src.Float64() < 0.15 {
		shardChoices := []int{1, 2, 4, 8}
		spec.Shards = shardChoices[src.Intn(len(shardChoices))]
	}
	// A slice of scenarios also proves the fleet control plane's
	// kill-restore property on a side world of a few hollow nodes.
	if src.Float64() < 0.15 {
		spec.FleetNodes = 1 + src.Intn(maxFleetNodes)
	}
	// A slice of scenarios runs fully instrumented; telemetry must never
	// show in a fingerprint, so these runs are plain battery members.
	spec.Telemetry = src.Float64() < 0.15
	return spec
}
