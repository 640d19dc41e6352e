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
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// Spec is one generated scenario: the world shape, the tenants, and the
// scheduler parameters — everything except the approach under test, so
// the same Spec runs differentially across all approaches. It is plain
// data (JSON-marshalable) so failing cases can be reported, minimized
// and replayed.
type Spec struct {
	// Seed drives all workload randomness inside the world.
	Seed uint64 `json:"seed"`
	// Nodes and PCPUs shape the physical cluster.
	Nodes int `json:"nodes"`
	PCPUs int `json:"pcpus"`
	// FixedSliceMs, when nonzero, pins the base time slice.
	FixedSliceMs float64 `json:"fixedSliceMs,omitempty"`
	// DisableBoost/DisableSteal toggle the credit core's wake boost and
	// idle stealing — adversarial knobs for the state machine.
	DisableBoost bool `json:"disableBoost,omitempty"`
	DisableSteal bool `json:"disableSteal,omitempty"`
	// Clusters are the measured parallel tenants.
	Clusters []ClusterSpec `json:"clusters"`
	// Jobs are non-parallel co-tenants (background noise; their work is
	// time-dependent and excluded from conservation checks).
	Jobs []JobSpec `json:"jobs,omitempty"`
	// NodeKinds, when present, pins individual nodes to a registered
	// scheduler kind regardless of the approach under test (heterogeneous
	// clusters). Entry i applies to node i; an empty string keeps the
	// approach's scheduler on that node.
	NodeKinds []string `json:"nodeKinds,omitempty"`
	// SwapKind, when nonempty, live-swaps every node to this registered
	// kind at SwapAtSec of virtual time — the mid-run policy-switch
	// property.
	SwapKind  string  `json:"swapKind,omitempty"`
	SwapAtSec float64 `json:"swapAtSec,omitempty"`
	// Faults, when present, layers a deterministic fault schedule onto
	// the run; the battery's properties must hold regardless.
	Faults *fault.Spec `json:"faults,omitempty"`
	// Shards is how many engine shards the world runs on, 1..8; 0 reads
	// as 1, so specs written before the serial engine was retired still
	// parse. The battery's properties are shard-blind; the dedicated
	// shard equivalence check additionally proves fingerprints match
	// across shard counts.
	Shards int `json:"shards,omitempty"`
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
	// HorizonSec caps the run's virtual time (liveness safety net).
	HorizonSec float64 `json:"horizonSec"`
}

// ClusterSpec sizes one virtual cluster and its BSP application.
type ClusterSpec struct {
	Kernel string `json:"kernel"`
	Class  string `json:"class"`
	VMs    int    `json:"vms"`
	VCPUs  int    `json:"vcpus"`
	Rounds int    `json:"rounds"`
	// Iterations overrides the kernel's superstep count, scaling work
	// down to property-test size.
	Iterations int `json:"iterations"`
}

// JobSpec places one non-parallel tenant.
type JobSpec struct {
	// Type is ping, web, disk, stream, or cpu.
	Type string `json:"type"`
	Node int    `json:"node"`
	// Name selects the CPU profile for type cpu.
	Name string `json:"name,omitempty"`
}

// Generator hard bounds: Validate rejects anything outside them, so
// fuzz-derived Specs cannot blow up memory or wall time.
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

// Validate checks a Spec against the generator's hard bounds.
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 1 || s.Nodes > maxNodes:
		return fmt.Errorf("proptest: nodes %d out of [1,%d]", s.Nodes, maxNodes)
	case s.PCPUs < 1 || s.PCPUs > maxPCPUs:
		return fmt.Errorf("proptest: pcpus %d out of [1,%d]", s.PCPUs, maxPCPUs)
	case s.FixedSliceMs < 0 || s.FixedSliceMs > 100:
		return fmt.Errorf("proptest: fixed slice %vms out of [0,100]", s.FixedSliceMs)
	case len(s.Clusters) < 1 || len(s.Clusters) > maxClusters:
		return fmt.Errorf("proptest: %d clusters out of [1,%d]", len(s.Clusters), maxClusters)
	case len(s.Jobs) > maxJobs:
		return fmt.Errorf("proptest: %d jobs exceeds %d", len(s.Jobs), maxJobs)
	case s.HorizonSec <= 0 || s.HorizonSec > maxHorizonSec:
		return fmt.Errorf("proptest: horizon %vs out of (0,%d]", s.HorizonSec, maxHorizonSec)
	case s.Shards < 0 || s.Shards > maxShards:
		return fmt.Errorf("proptest: shards %d out of [1,%d] (0 reads as 1)", s.Shards, maxShards)
	case s.FleetNodes < 0 || s.FleetNodes > maxFleetNodes:
		return fmt.Errorf("proptest: fleetNodes %d out of [0,%d]", s.FleetNodes, maxFleetNodes)
	}
	for i, c := range s.Clusters {
		if _, err := c.profile(); err != nil {
			return fmt.Errorf("proptest: cluster %d: %w", i, err)
		}
		switch {
		case c.VMs < 1 || c.VMs > maxVMs:
			return fmt.Errorf("proptest: cluster %d: vms %d out of [1,%d]", i, c.VMs, maxVMs)
		case c.VCPUs < 1 || c.VCPUs > maxVCPUs:
			return fmt.Errorf("proptest: cluster %d: vcpus %d out of [1,%d]", i, c.VCPUs, maxVCPUs)
		case c.Rounds < 1 || c.Rounds > maxRounds:
			return fmt.Errorf("proptest: cluster %d: rounds %d out of [1,%d]", i, c.Rounds, maxRounds)
		case c.Iterations < 1 || c.Iterations > maxIterations:
			return fmt.Errorf("proptest: cluster %d: iterations %d out of [1,%d]", i, c.Iterations, maxIterations)
		}
	}
	if len(s.NodeKinds) > s.Nodes {
		return fmt.Errorf("proptest: %d node kinds for %d nodes", len(s.NodeKinds), s.Nodes)
	}
	for i, k := range s.NodeKinds {
		if k == "" {
			continue
		}
		if _, ok := registry.Lookup(k); !ok {
			return fmt.Errorf("proptest: node kind %d: %w", i, registry.UnknownKindError(k))
		}
	}
	switch {
	case s.SwapKind == "" && s.SwapAtSec != 0:
		return fmt.Errorf("proptest: swapAtSec %v without swapKind", s.SwapAtSec)
	case s.SwapKind != "":
		if _, ok := registry.Lookup(s.SwapKind); !ok {
			return fmt.Errorf("proptest: swap: %w", registry.UnknownKindError(s.SwapKind))
		}
		if s.SwapAtSec <= 0 || s.SwapAtSec > s.HorizonSec {
			return fmt.Errorf("proptest: swapAtSec %vs out of (0,%vs]", s.SwapAtSec, s.HorizonSec)
		}
	}
	if s.Faults != nil {
		if n := len(s.Faults.Windows); n > maxFaultWindows {
			return fmt.Errorf("proptest: %d fault windows exceeds %d", n, maxFaultWindows)
		}
		if err := s.Faults.Validate(s.Nodes); err != nil {
			return fmt.Errorf("proptest: %w", err)
		}
		for i, w := range s.Faults.Windows {
			if w.StartSec+w.DurSec > s.HorizonSec {
				return fmt.Errorf("proptest: fault window %d ends at %vs, past horizon %vs",
					i, w.StartSec+w.DurSec, s.HorizonSec)
			}
		}
	}
	for i, j := range s.Jobs {
		switch j.Type {
		case "ping", "web", "disk", "stream":
		case "cpu":
			found := false
			for _, p := range workload.SPECProfiles() {
				if p.Name == j.Name {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("proptest: job %d: unknown cpu profile %q", i, j.Name)
			}
		default:
			return fmt.Errorf("proptest: job %d: unknown type %q", i, j.Type)
		}
		if j.Node < 0 || j.Node >= s.Nodes {
			return fmt.Errorf("proptest: job %d: node %d out of range", i, j.Node)
		}
	}
	return nil
}

// profile resolves the cluster's application profile with its iteration
// override applied.
func (c ClusterSpec) profile() (workload.AppProfile, error) {
	var cls workload.Class
	switch c.Class {
	case "A":
		cls = workload.ClassA
	case "B":
		cls = workload.ClassB
	case "C":
		cls = workload.ClassC
	default:
		return workload.AppProfile{}, fmt.Errorf("unknown class %q", c.Class)
	}
	known := false
	for _, k := range append(workload.NPBKernels(), workload.ExtraKernels()...) {
		if k == c.Kernel {
			known = true
		}
	}
	if !known {
		return workload.AppProfile{}, fmt.Errorf("unknown kernel %q", c.Kernel)
	}
	p := workload.NPB(c.Kernel, cls)
	if c.Iterations > 0 {
		p.Iterations = c.Iterations
	}
	return p, nil
}

// horizon returns the Spec's virtual-time budget.
func (s Spec) horizon() sim.Time { return sim.FromSeconds(s.HorizonSec) }

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
	spec := Spec{
		Seed:       seed,
		Nodes:      1 + src.Intn(lim.Nodes),
		PCPUs:      1 + src.Intn(lim.PCPUs),
		HorizonSec: 900,
	}
	spec.FixedSliceMs = fixedSliceChoices[src.Intn(len(fixedSliceChoices))]
	spec.DisableBoost = src.Float64() < 0.1
	spec.DisableSteal = src.Float64() < 0.1
	kernels := append(workload.NPBKernels(), workload.ExtraKernels()...)
	for i, n := 0, 1+src.Intn(lim.Clusters); i < n; i++ {
		spec.Clusters = append(spec.Clusters, ClusterSpec{
			Kernel:     kernels[src.Intn(len(kernels))],
			Class:      classChoices[src.Intn(len(classChoices))],
			VMs:        1 + src.Intn(lim.VMs),
			VCPUs:      1 + src.Intn(lim.VCPUs),
			Rounds:     1 + src.Intn(lim.Rounds),
			Iterations: 1 + src.Intn(lim.Iterations),
		})
	}
	for i, n := 0, src.Intn(lim.Jobs+1); i < n; i++ {
		j := JobSpec{Type: jobTypes[src.Intn(len(jobTypes))], Node: src.Intn(spec.Nodes)}
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
				spec.NodeKinds = append(spec.NodeKinds, kinds[src.Intn(len(kinds))])
			} else {
				spec.NodeKinds = append(spec.NodeKinds, "")
			}
		}
	}
	if src.Float64() < 0.15 {
		spec.SwapKind = kinds[src.Intn(len(kinds))]
		// Early in the run so the swap lands while measured work is live.
		spec.SwapAtSec = 0.05 + 0.5*src.Float64()
	}
	if src.Float64() < 0.15 {
		spec.Faults = genFaults(src, spec.Nodes)
	}
	// A slice of scenarios runs on several engine shards (shard counts
	// past the node count clamp down in the world builder); the rest run
	// on one.
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
