// Package scenario is the one description of a simulated world: a Spec
// (JSON-decodable) names the platform (nodes, scheduler), the virtual
// clusters with their kernels, and the non-parallel jobs; Build turns it
// into a runnable cluster scenario and Run executes it and renders a
// result table. cmd/atcsim builds both its -f files and its flags through
// here, and internal/proptest generates Specs for its property battery.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
	"atcsched/internal/report"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// Spec is the top-level scenario description.
type Spec struct {
	// Nodes is the physical node count (required, >= 1).
	Nodes int `json:"nodes"`
	// PCPUsPerNode overrides the default 8 cores per node.
	PCPUsPerNode int `json:"pcpusPerNode,omitempty"`
	// Scheduler selects and tunes the approach.
	Scheduler SchedulerSpec `json:"scheduler"`
	// Seed drives workload randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// HorizonSec caps the virtual runtime (default 1200).
	HorizonSec float64 `json:"horizonSec,omitempty"`
	// VirtualClusters lists the parallel tenants.
	VirtualClusters []VCSpec `json:"virtualClusters"`
	// Jobs lists the non-parallel tenants.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// NodePolicies assigns different scheduling policies to specific
	// nodes, overriding Scheduler there (heterogeneous clusters).
	NodePolicies []NodePolicySpec `json:"nodePolicies,omitempty"`
	// Switches schedules live policy replacements at virtual times
	// during the run (e.g. flip CR to ATC mid-experiment).
	Switches []SwitchSpec `json:"policySwitches,omitempty"`
	// Faults schedules deterministic fault injection (internal/fault):
	// straggler nodes, packet loss, bandwidth degradation, monitor
	// faults. Windows are seeded from faults.seed (or the scenario
	// seed).
	Faults *fault.Spec `json:"faults,omitempty"`
	// Shards is how many worker goroutines run the world's per-node
	// engines (0 reads as 1; counts past the node count clamp down).
	// Results are byte-identical at every count.
	Shards int `json:"shards,omitempty"`
}

// SchedulerSpec selects the VMM scheduling approach.
type SchedulerSpec struct {
	// Kind names a registered policy; `atcsim -list-schedulers` prints
	// them all.
	Kind string `json:"kind"`
	// Options parameterizes the policy: a JSON object decoded over the
	// policy's defaults (e.g. {"control": {"alpha": "6ms"}} for ATC, or
	// {"spinWaitThreshold": "150us"} for CS). Unknown fields are errors.
	Options json.RawMessage `json:"options,omitempty"`
	// FixedSliceMs pins the base slice; with DisableBoost and
	// DisableSteal it is the kind-agnostic credit-core override
	// (registry.Base) of the options' credit fields.
	FixedSliceMs float64 `json:"fixedSliceMs,omitempty"`
	// NonParallelAdminSliceMs applies an admin slice to every
	// non-parallel VM (the ATC(6ms) variant).
	NonParallelAdminSliceMs float64 `json:"nonParallelAdminSliceMs,omitempty"`
	// DisableBoost and DisableSteal: see FixedSliceMs.
	DisableBoost bool `json:"disableBoost,omitempty"`
	DisableSteal bool `json:"disableSteal,omitempty"`
}

// NodePolicySpec pins a scheduling policy on a subset of nodes. It is a
// complete policy selection — it does not inherit the top-level
// scheduler's options or slice overrides.
type NodePolicySpec struct {
	// Nodes lists the node indices the policy applies to.
	Nodes []int `json:"nodes"`
	// Kind and Options as in SchedulerSpec.
	Kind    string          `json:"kind"`
	Options json.RawMessage `json:"options,omitempty"`
}

// SwitchSpec replaces the scheduling policy on running nodes at a
// virtual time. The swap lands on each node's next period boundary
// after AtSec.
type SwitchSpec struct {
	// AtSec is the virtual time of the switch (> 0).
	AtSec float64 `json:"atSec"`
	// Nodes lists target node indices; empty means every node.
	Nodes []int `json:"nodes,omitempty"`
	// Kind and Options select the replacement policy.
	Kind    string          `json:"kind"`
	Options json.RawMessage `json:"options,omitempty"`
}

// VCSpec describes one virtual cluster.
type VCSpec struct {
	Name string `json:"name"`
	// VMs and VCPUs size the cluster (defaults: one VM per node, 8).
	VMs   int `json:"vms,omitempty"`
	VCPUs int `json:"vcpus,omitempty"`
	// Kernel and Class pick the application (defaults lu, B). Kernels:
	// lu, is, sp, bt, mg, cg, ep, ft.
	Kernel string `json:"kernel,omitempty"`
	Class  string `json:"class,omitempty"`
	// Rounds to measure (default 3); Forever keeps it running after.
	Rounds  int  `json:"rounds,omitempty"`
	Forever bool `json:"forever,omitempty"`
	// Iterations overrides the kernel's superstep count per round (0
	// keeps the kernel's own), scaling work down to test size.
	Iterations int `json:"iterations,omitempty"`
	// Background excludes the cluster from completion accounting.
	Background bool `json:"background,omitempty"`
}

// classOf maps the spec's problem-class letters to workload classes.
var classOf = map[string]workload.Class{"A": workload.ClassA, "B": workload.ClassB, "C": workload.ClassC}

// Profile resolves the cluster's application: the kernel at its class,
// with Iterations applied. Call it on a validated spec.
func (vc VCSpec) Profile() workload.AppProfile {
	p := workload.NPB(vc.Kernel, classOf[vc.Class])
	if vc.Iterations > 0 {
		p.Iterations = vc.Iterations
	}
	return p
}

// JobSpec describes one non-parallel tenant.
type JobSpec struct {
	// Type is web, ping, disk, stream, or cpu.
	Type string `json:"type"`
	// Name selects the CPU profile for type cpu (gcc, bzip2, sphinx3).
	Name string `json:"name,omitempty"`
	// Node hosts the job's (server) VM.
	Node int `json:"node"`
	// PeerNode hosts the client/prober VM for web and ping (defaults to
	// (Node+1) mod nodes).
	PeerNode *int `json:"peerNode,omitempty"`
	// IntervalMs is the ping probe spacing (default 10).
	IntervalMs float64 `json:"intervalMs,omitempty"`
}

// Resource caps: a spec is a request to allocate a world, so every size
// and duration is bounded. The caps are far above anything the paper's
// experiments use; they exist so a malformed or hostile spec fails
// Validate instead of exhausting memory or overflowing the virtual
// clock (sim.Time is int64 nanoseconds — huge float seconds would wrap).
const (
	maxNodes        = 1024
	maxPCPUsPerNode = 256
	maxClusters     = 256
	maxVMs          = 4096
	maxVCPUs        = 256
	maxRounds       = 100000
	maxIterations   = 100000
	maxJobs         = 1024
	maxHorizonSec   = 864000 // 10 virtual days
	maxSliceMs      = 10000
	maxIntervalMs   = 60000
	maxSwitches     = 64
)

// Load parses and validates a JSON spec.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec and fills defaults.
func (s *Spec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("scenario: nodes must be >= 1, got %d", s.Nodes)
	}
	if s.Nodes > maxNodes {
		return fmt.Errorf("scenario: nodes %d exceeds cap %d", s.Nodes, maxNodes)
	}
	if s.PCPUsPerNode < 0 || s.PCPUsPerNode > maxPCPUsPerNode {
		return fmt.Errorf("scenario: pcpusPerNode %d out of [0,%d]", s.PCPUsPerNode, maxPCPUsPerNode)
	}
	// Shard counts past the node count clamp down, so the node cap bounds
	// them too.
	if s.Shards < 0 || s.Shards > maxNodes {
		return fmt.Errorf("scenario: shards %d out of [0,%d]", s.Shards, maxNodes)
	}
	if len(s.VirtualClusters) > maxClusters {
		return fmt.Errorf("scenario: %d clusters exceeds cap %d", len(s.VirtualClusters), maxClusters)
	}
	if len(s.Jobs) > maxJobs {
		return fmt.Errorf("scenario: %d jobs exceeds cap %d", len(s.Jobs), maxJobs)
	}
	if s.Scheduler.Kind == "" {
		s.Scheduler.Kind = "ATC"
	}
	if err := registry.Validate(s.Scheduler.Kind, s.Scheduler.Options); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.Scheduler.FixedSliceMs < 0 || s.Scheduler.NonParallelAdminSliceMs < 0 {
		return fmt.Errorf("scenario: negative slice override")
	}
	if s.Scheduler.FixedSliceMs > maxSliceMs || s.Scheduler.NonParallelAdminSliceMs > maxSliceMs {
		return fmt.Errorf("scenario: slice override exceeds cap %dms", maxSliceMs)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.HorizonSec == 0 {
		s.HorizonSec = 1200
	}
	if s.HorizonSec < 0 {
		return fmt.Errorf("scenario: negative horizon")
	}
	if s.HorizonSec > maxHorizonSec {
		return fmt.Errorf("scenario: horizon %vs exceeds cap %ds", s.HorizonSec, maxHorizonSec)
	}
	if len(s.VirtualClusters) == 0 && len(s.Jobs) == 0 {
		return fmt.Errorf("scenario: nothing to run")
	}
	names := map[string]bool{}
	for i := range s.VirtualClusters {
		vc := &s.VirtualClusters[i]
		if vc.Name == "" {
			vc.Name = fmt.Sprintf("vc%d", i)
		}
		if names[vc.Name] {
			return fmt.Errorf("scenario: duplicate cluster name %q", vc.Name)
		}
		names[vc.Name] = true
		if vc.VMs == 0 {
			vc.VMs = s.Nodes
		}
		if vc.VCPUs == 0 {
			vc.VCPUs = 8
		}
		if vc.Kernel == "" {
			vc.Kernel = "lu"
		}
		known := false
		for _, k := range append(workload.NPBKernels(), workload.ExtraKernels()...) {
			if vc.Kernel == k {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("scenario: cluster %q: unknown kernel %q", vc.Name, vc.Kernel)
		}
		if vc.Class == "" {
			vc.Class = "B"
		}
		if vc.Class != "A" && vc.Class != "B" && vc.Class != "C" {
			return fmt.Errorf("scenario: cluster %q: class must be A, B or C", vc.Name)
		}
		if vc.Rounds == 0 {
			vc.Rounds = 3
		}
		if vc.Rounds < 0 || vc.Iterations < 0 || vc.VMs < 1 || vc.VCPUs < 1 {
			return fmt.Errorf("scenario: cluster %q: bad sizing", vc.Name)
		}
		if vc.VMs > maxVMs || vc.VCPUs > maxVCPUs || vc.Rounds > maxRounds || vc.Iterations > maxIterations {
			return fmt.Errorf("scenario: cluster %q: sizing exceeds caps (vms %d/%d, vcpus %d/%d, rounds %d/%d, iterations %d/%d)",
				vc.Name, vc.VMs, maxVMs, vc.VCPUs, maxVCPUs, vc.Rounds, maxRounds, vc.Iterations, maxIterations)
		}
	}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		switch j.Type {
		case "web", "ping", "disk", "stream", "cpu":
		default:
			return fmt.Errorf("scenario: job %d: unknown type %q", i, j.Type)
		}
		if j.Node < 0 || j.Node >= s.Nodes {
			return fmt.Errorf("scenario: job %d: node %d out of range", i, j.Node)
		}
		if j.PeerNode != nil && (*j.PeerNode < 0 || *j.PeerNode >= s.Nodes) {
			return fmt.Errorf("scenario: job %d: peer node out of range", i)
		}
		if j.Type == "cpu" {
			found := false
			for _, p := range workload.SPECProfiles() {
				if p.Name == j.Name {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("scenario: job %d: unknown cpu profile %q (gcc|bzip2|sphinx3)", i, j.Name)
			}
		}
		if j.IntervalMs < 0 {
			return fmt.Errorf("scenario: job %d: negative interval", i)
		}
		if j.IntervalMs > maxIntervalMs {
			return fmt.Errorf("scenario: job %d: interval exceeds cap %dms", i, maxIntervalMs)
		}
		if j.IntervalMs == 0 {
			j.IntervalMs = 10
		}
	}
	pinned := map[int]bool{}
	for i, np := range s.NodePolicies {
		if len(np.Nodes) == 0 {
			return fmt.Errorf("scenario: node policy %d: empty node list", i)
		}
		for _, n := range np.Nodes {
			if n < 0 || n >= s.Nodes {
				return fmt.Errorf("scenario: node policy %d: node %d out of range", i, n)
			}
			if pinned[n] {
				return fmt.Errorf("scenario: node %d has multiple node policies", n)
			}
			pinned[n] = true
		}
		if err := registry.Validate(np.Kind, np.Options); err != nil {
			return fmt.Errorf("scenario: node policy %d: %w", i, err)
		}
	}
	if len(s.Switches) > maxSwitches {
		return fmt.Errorf("scenario: %d policy switches exceeds cap %d", len(s.Switches), maxSwitches)
	}
	for i, sw := range s.Switches {
		if sw.AtSec <= 0 {
			return fmt.Errorf("scenario: policy switch %d: atSec must be > 0, got %v", i, sw.AtSec)
		}
		if sw.AtSec > maxHorizonSec {
			return fmt.Errorf("scenario: policy switch %d: atSec %vs exceeds cap %ds", i, sw.AtSec, maxHorizonSec)
		}
		for _, n := range sw.Nodes {
			if n < 0 || n >= s.Nodes {
				return fmt.Errorf("scenario: policy switch %d: node %d out of range", i, n)
			}
		}
		if err := registry.Validate(sw.Kind, sw.Options); err != nil {
			return fmt.Errorf("scenario: policy switch %d: %w", i, err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(s.Nodes); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// Result is a built, runnable scenario plus handles to its metrics.
type Result struct {
	Scenario *cluster.Scenario
	runs     map[string]*workload.ParallelRun
	webs     []*workload.WebJob
	pings    []*workload.PingJob
	disks    []*workload.DiskJob
	streams  []*workload.StreamJob
	cpus     []*workload.CPUJob
	jobNames []string
	horizon  sim.Time
	order    []string
}

// Build constructs the world from the spec.
func Build(spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := cluster.DefaultConfig(spec.Nodes, cluster.Approach(strings.ToUpper(spec.Scheduler.Kind)))
	cfg.Seed = spec.Seed
	cfg.Shards = spec.Shards
	if spec.PCPUsPerNode > 0 {
		cfg.Node.PCPUs = spec.PCPUsPerNode
	}
	if len(spec.Scheduler.Options) > 0 {
		cfg.Sched.Options = spec.Scheduler.Options
	}
	if spec.Scheduler.FixedSliceMs > 0 {
		cfg.Sched.FixedSlice = sim.FromMillis(spec.Scheduler.FixedSliceMs)
	}
	if spec.Scheduler.NonParallelAdminSliceMs > 0 {
		cfg.NonParallelAdminSlice = sim.FromMillis(spec.Scheduler.NonParallelAdminSliceMs)
	}
	cfg.Sched.DisableBoost = spec.Scheduler.DisableBoost
	cfg.Sched.DisableSteal = spec.Scheduler.DisableSteal
	cfg.Faults = spec.Faults
	if len(spec.NodePolicies) > 0 {
		cfg.NodePolicies = map[int]cluster.SchedSpec{}
		for _, np := range spec.NodePolicies {
			nspec := cluster.SchedSpec{Kind: cluster.Approach(strings.ToUpper(np.Kind))}
			if len(np.Options) > 0 {
				nspec.Options = np.Options
			}
			for _, n := range np.Nodes {
				cfg.NodePolicies[n] = nspec
			}
		}
	}
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	for i, sw := range spec.Switches {
		sspec := cluster.SchedSpec{Kind: cluster.Approach(strings.ToUpper(sw.Kind))}
		if len(sw.Options) > 0 {
			sspec.Options = sw.Options
		}
		if err := s.SwitchAt(sim.FromSeconds(sw.AtSec), sw.Nodes, sspec); err != nil {
			return nil, fmt.Errorf("scenario: policy switch %d: %w", i, err)
		}
	}
	res := &Result{
		Scenario: s,
		runs:     map[string]*workload.ParallelRun{},
		horizon:  sim.FromSeconds(spec.HorizonSec),
	}
	for _, vc := range spec.VirtualClusters {
		prof := vc.Profile()
		vms := s.VirtualCluster(vc.Name, vc.VMs, vc.VCPUs, nil)
		if vc.Background {
			s.RunBackground(prof, vms)
			continue
		}
		res.runs[vc.Name] = s.RunParallel(prof, vms, vc.Rounds, vc.Forever)
		res.order = append(res.order, vc.Name)
	}
	for i, j := range spec.Jobs {
		peer := (j.Node + 1) % spec.Nodes
		if j.PeerNode != nil {
			peer = *j.PeerNode
		}
		label := fmt.Sprintf("%s%d", j.Type, i)
		switch j.Type {
		case "web":
			server := s.IndependentVM(label+"-srv", j.Node, 2, vmm.ClassNonParallel)
			client := s.IndependentVM(label+"-cli", peer, 2, vmm.ClassNonParallel)
			res.webs = append(res.webs, workload.NewWebJob(client, 0, server, 0,
				20*sim.Millisecond, 2*sim.Millisecond, spec.Seed+uint64(i)))
		case "ping":
			client := s.IndependentVM(label+"-cli", peer, 1, vmm.ClassNonParallel)
			echo := s.IndependentVM(label+"-echo", j.Node, 1, vmm.ClassNonParallel)
			res.pings = append(res.pings, workload.NewPingJob(client, 0, echo, 0,
				sim.FromMillis(j.IntervalMs)))
		case "disk":
			vm := s.IndependentVM(label, j.Node, 1, vmm.ClassNonParallel)
			res.disks = append(res.disks, workload.NewDiskJob(vm.VCPU(0)))
		case "stream":
			vm := s.IndependentVM(label, j.Node, 1, vmm.ClassNonParallel)
			res.streams = append(res.streams, workload.NewStreamJob(vm.VCPU(0)))
		case "cpu":
			vm := s.IndependentVM(label+"-"+j.Name, j.Node, 1, vmm.ClassNonParallel)
			for _, p := range workload.SPECProfiles() {
				if p.Name == j.Name {
					res.cpus = append(res.cpus, workload.NewCPUJob(vm.VCPU(0), p))
				}
			}
		}
		res.jobNames = append(res.jobNames, label)
	}
	return res, nil
}

// Run executes the scenario: to measured-cluster completion when there
// are measured clusters (with the horizon as a safety net), else for a
// fixed 30 virtual seconds of steady state. It returns the result table.
func (r *Result) Run() (*report.Table, error) {
	if len(r.runs) > 0 {
		if !r.Scenario.Go(r.horizon) {
			return nil, fmt.Errorf("scenario: horizon %v exceeded before all clusters finished", r.horizon)
		}
		r.Scenario.ContinueFor(5 * sim.Second)
	} else {
		r.Scenario.GoFor(30 * sim.Second)
	}
	t := report.New("scenario results", "entity", "metric", "value")
	for _, name := range r.order {
		run := r.runs[name]
		t.Add(name, "mean exec", fmt.Sprintf("%.3fs", run.MeanTime()))
		t.Add(name, "spin latency", run.App.SpinLatencyMean().String())
	}
	for _, w := range r.webs {
		t.Add("web", "mean response", report.Ms(w.MeanResponse()))
		t.Add("web", "p99 response", report.Ms(w.P99Response()))
	}
	for _, p := range r.pings {
		t.Add("ping", "mean RTT", report.Ms(p.MeanRTT()))
		t.Add("ping", "p99 RTT", report.Ms(p.P99RTT()))
	}
	for _, d := range r.disks {
		t.Add("disk", "throughput", fmt.Sprintf("%.1f MB/s", d.ThroughputMBps()))
	}
	for _, st := range r.streams {
		t.Add("stream", "bandwidth", fmt.Sprintf("%.0f MB/s", st.BandwidthMBps()))
	}
	for _, c := range r.cpus {
		t.Add(c.Profile.Name, "round time", fmt.Sprintf("%.3fs", c.MeanTime()))
	}
	if r.Scenario.FaultPlan() != nil {
		t.Add("faults", "injections", r.Scenario.FaultReport().String())
	}
	return t, nil
}
