// Package atcsched reproduces "Dynamic Acceleration of Parallel
// Applications in Cloud Platforms by Adaptive Time-Slice Control"
// (IPPS 2016) as a Go library: the ATC controller itself, a deterministic
// discrete-event simulator of a Xen-like virtualized cluster to evaluate
// it on, five baseline VMM schedulers, the paper's workload suite, and a
// harness that regenerates every table and figure of the evaluation.
//
// This root package is a thin facade re-exporting the pieces a typical
// consumer needs; the implementation lives under internal/ (see DESIGN.md
// for the module map):
//
//   - Controller (internal/core): the paper's Algorithms 1 and 2 for one
//     node as a pure library — feed per-period spinlock latencies, get
//     per-VM time slices. The simulator's ATC and cmd/atcd run it too.
//   - Scenario (internal/cluster): build a simulated cluster under any of
//     the six scheduling approaches and run workloads on it.
//   - The experiment registry (internal/experiment): regenerate paper
//     artifacts programmatically (also via cmd/experiments).
package atcsched

import (
	"atcsched/internal/cluster"
	"atcsched/internal/core"
	"atcsched/internal/experiment"
	"atcsched/internal/report"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// Re-exported core-controller API (the paper's contribution).
type (
	// Controller implements Adaptive Time-slice Control (Algorithms 1-2).
	Controller = core.Node
	// ControlConfig parameterizes a Controller (α, β, threshold, window).
	ControlConfig = core.Config
	// Sample is one VM's monitor reading for Controller.Decide.
	Sample = core.Sample
)

// NewController returns an ATC controller; panics on invalid config.
func NewController(cfg ControlConfig) *Controller { return core.NewNode(cfg, core.DefaultStaleAfter) }

// DefaultControlConfig returns the paper's parameters (30 ms default,
// 0.3 ms threshold, α = 6 ms, β = 0.3 ms, 3-period window).
func DefaultControlConfig() ControlConfig { return core.DefaultConfig() }

// Re-exported simulation scenario API.
type (
	// Scenario is a simulated cluster under construction.
	Scenario = cluster.Scenario
	// ScenarioConfig parameterizes a Scenario.
	ScenarioConfig = cluster.Config
	// Approach names a scheduling policy (CR, CS, BS, DSS, VS, ATC).
	Approach = cluster.Approach
	// AppProfile parameterizes a BSP parallel application.
	AppProfile = workload.AppProfile
	// Time is a virtual-time instant or span in nanoseconds.
	Time = sim.Time
	// Table is a rendered result table.
	Table = report.Table
)

// The six scheduling approaches.
const (
	CR  = cluster.CR
	CS  = cluster.CS
	BS  = cluster.BS
	DSS = cluster.DSS
	VS  = cluster.VS
	ATC = cluster.ATC
)

// NewScenario builds a simulated cluster; see cluster.New.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) { return cluster.New(cfg) }

// SchedulerKinds returns every scheduling policy registered with
// internal/sched/registry, sorted — the valid values everywhere a policy
// is named (ScenarioConfig, scenario JSON, command-line flags).
func SchedulerKinds() []string { return registry.Kinds() }

// DefaultScenarioConfig returns a paper-testbed-like configuration.
func DefaultScenarioConfig(nodes int, kind Approach) ScenarioConfig {
	return cluster.DefaultConfig(nodes, kind)
}

// NPBProfile returns the profile of one of the paper's six kernels
// ("lu", "is", "sp", "bt", "mg", "cg") at class "A", "B" or "C".
func NPBProfile(kernel string, class string) AppProfile {
	var c workload.Class
	switch class {
	case "A":
		c = workload.ClassA
	case "B":
		c = workload.ClassB
	case "C":
		c = workload.ClassC
	default:
		panic("atcsched: class must be A, B or C")
	}
	return workload.NPB(kernel, c)
}

// Experiments returns the registered paper experiments in order.
func Experiments() []experiment.Experiment { return experiment.All() }

// RunExperiment regenerates one paper artifact by id at the named scale
// ("small", "medium", "full").
func RunExperiment(id, scale string, seed uint64) ([]*Table, error) {
	sc, err := experiment.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	e, err := experiment.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(sc, seed)
}
