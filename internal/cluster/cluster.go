// Package cluster assembles whole experiment scenarios: a world of
// identical nodes under a named scheduling approach, virtual clusters
// striped across nodes, independent VMs, parallel application runs and
// non-parallel jobs, and a completion-driven run loop.
package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"

	"atcsched/internal/fault"
	"atcsched/internal/netmodel"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"

	// Link every in-tree policy so registry lookups resolve.
	_ "atcsched/internal/sched/all"
)

// Approach names a scheduling policy registered in sched/registry.
type Approach string

// The compared approaches (kept as constants for ergonomic literals; the
// authoritative list lives in the registry).
const (
	CR  Approach = "CR"  // Xen Credit (baseline)
	CS  Approach = "CS"  // dynamic co-scheduling
	BS  Approach = "BS"  // balance scheduling
	DSS Approach = "DSS" // dynamic switching-frequency scaling
	VS  Approach = "VS"  // vSlicer microslicing
	ATC Approach = "ATC" // the paper's adaptive time-slice control
	// HY is the hybrid scheduling framework from the paper's related
	// work — an extension baseline, not part of the evaluated set.
	HY Approach = "HY"
	// DFRS is dynamic fractional resource scheduling (per-VM CPU
	// fractions), and ATCDFRS the ATC×DFRS hybrid — extension
	// baselines contrasting fraction control with slice control.
	DFRS    Approach = "DFRS"
	ATCDFRS Approach = "ATCDFRS"
)

// Approaches returns the paper's six compared approaches in the paper's
// comparison order, as declared by the policies' registry descriptors.
func Approaches() []Approach {
	kinds := registry.Compared()
	out := make([]Approach, len(kinds))
	for i, k := range kinds {
		out[i] = Approach(k)
	}
	return out
}

// ExtendedApproaches returns the compared set plus the extension
// baselines this repository adds.
func ExtendedApproaches() []Approach {
	out := Approaches()
	for _, k := range registry.Extensions() {
		out = append(out, Approach(k))
	}
	return out
}

// SchedSpec selects and parameterizes a scheduling approach.
type SchedSpec struct {
	Kind Approach
	// Options parameterizes the policy: nil (the registry defaults), a
	// json.RawMessage decoded over the defaults, or the policy's whole
	// options struct (or a pointer to it), used as given — start from
	// the package's DefaultOptions() to change one field. See
	// registry.Descriptor.Options.
	Options any
	// FixedSlice (the static sweeps of Figures 5, 8 and 9) and the
	// ablations' toggles override the credit core under any Kind; see
	// registry.Base.
	FixedSlice   sim.Time
	DisableBoost bool
	DisableSteal bool
}

// Factory resolves the spec through the policy registry into a
// per-node scheduler factory.
func (s SchedSpec) Factory() (vmm.SchedulerFactory, error) {
	f, err := registry.Resolve(string(s.Kind), s.Options, registry.Base{
		FixedSlice:   s.FixedSlice,
		DisableBoost: s.DisableBoost,
		DisableSteal: s.DisableSteal,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return f, nil
}

// Config parameterizes a scenario.
type Config struct {
	Nodes int
	Node  vmm.NodeConfig
	Net   netmodel.Config
	// Shards is how many worker goroutines run the world's per-node
	// engines, synchronized at the network lookahead (Net.WireLatency
	// must be positive); each worker runs a contiguous range of nodes.
	// Zero means one. It is a parallelism setting only: results are
	// byte-identical at every worker count.
	Shards int
	Sched  SchedSpec
	// NodePolicies, when non-empty, overrides Sched for specific nodes
	// (keyed by node index), making the cluster heterogeneous: e.g. most
	// nodes under CR with one node under ATC. Each entry is a complete
	// SchedSpec; it does not inherit fields from Sched.
	NodePolicies map[int]SchedSpec
	// NonParallelAdminSlice, when nonzero, is applied as the AdminSlice
	// of every non-parallel VM — the ATC(6ms) variant of §IV-C.
	NonParallelAdminSlice sim.Time
	// Seed drives all workload randomness.
	Seed uint64
	// AuditEvery, when nonzero, re-checks World.Audit every interval of
	// virtual time while the run loop drives the world (Go, GoFor,
	// ContinueFor, ContinueUntil) and once more when it hands back
	// control. Violations are retained (see Scenario.AuditViolations);
	// the run itself is not interrupted.
	AuditEvery sim.Time
	// OnAudit, when set alongside AuditEvery, observes every audit
	// point: the virtual time and the violation list (empty when
	// healthy).
	OnAudit func(at sim.Time, errs []error)
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan (internal/fault) to the world: straggler windows, packet
	// loss, bandwidth degradation and monitor faults, seeded from
	// Faults.Seed (or Seed when unset).
	Faults *fault.Spec
	// Telemetry, when non-nil, attaches a telemetry plane to the world
	// (internal/telemetry). Strictly observational: fingerprints are
	// byte-identical with or without it.
	Telemetry *telemetry.Plane
}

// DefaultConfig returns a paper-testbed-like configuration for the given
// node count and approach.
func DefaultConfig(nodes int, kind Approach) Config {
	return Config{
		Nodes: nodes,
		Node:  vmm.DefaultNodeConfig(),
		Net:   netmodel.DefaultConfig(),
		Sched: SchedSpec{Kind: kind},
		Seed:  1,
	}
}

// HollowConfig is DefaultConfig shrunk to kubemark proportions: two
// PCPUs and a single-VCPU dom0 per node, so a thousand-node world stays
// buildable. Pair it with workload.HollowRing.
func HollowConfig(nodes int, kind Approach) Config {
	cfg := DefaultConfig(nodes, kind)
	cfg.Node.PCPUs = 2
	cfg.Node.Dom0VCPUs = 1
	return cfg
}

// Scenario is a world under construction plus its measured runs.
type Scenario struct {
	Cfg   Config
	World *vmm.World

	runs []*workload.ParallelRun
	// pending counts measured runs that have not reached their target.
	// Atomic because each run's completion callback fires on its home
	// node's worker; every decrement still happens at an instant fixed by
	// virtual time, so reaching zero — and the window-quantized Stop it
	// triggers — is deterministic.
	pending    atomic.Int64
	nextVC     int
	auditViols []error
	faults     *fault.Plan
}

// New builds the world for cfg.
func New(cfg Config) (*Scenario, error) {
	def, err := cfg.Sched.Factory()
	if err != nil {
		return nil, err
	}
	perNode := make(map[int]vmm.SchedulerFactory, len(cfg.NodePolicies))
	for i, spec := range cfg.NodePolicies {
		if i < 0 || i >= cfg.Nodes {
			return nil, fmt.Errorf("cluster: node policy for node %d outside cluster of %d nodes", i, cfg.Nodes)
		}
		f, err := spec.Factory()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		perNode[i] = f
	}
	factoryFor := func(i int) vmm.SchedulerFactory {
		if f, ok := perNode[i]; ok {
			return f
		}
		return def
	}
	w, err := vmm.NewHeteroWorld(cfg.Nodes, cfg.Shards, cfg.Node, cfg.Net, factoryFor)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Cfg: cfg, World: w}
	if cfg.Telemetry != nil {
		w.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Faults != nil {
		plan, err := fault.Compile(cfg.Faults, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if err := plan.Attach(w); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		s.faults = plan
	}
	return s, nil
}

// FaultReport returns the attached fault plan's injection tallies (zero
// when no faults were configured).
func (s *Scenario) FaultReport() fault.Report { return s.faults.Report() }

// FinalizeTelemetry publishes end-of-run totals (per-node scheduler
// counters, shard sync stats, fault windows and tallies) into the
// world's telemetry plane, however it was attached (Config.Telemetry or
// World.SetTelemetry). No-op without one; call after the run.
func (s *Scenario) FinalizeTelemetry() {
	p := s.World.Telemetry()
	if p == nil {
		return
	}
	s.World.FinalizeTelemetry()
	s.faults.PublishTelemetry(p.Global())
}

// FaultPlan returns the compiled fault plan (nil without faults).
func (s *Scenario) FaultPlan() *fault.Plan { return s.faults }

// Fingerprint renders the run's observable outcome — engine counters,
// fault tallies, per-run round times, per-node and per-VM statistics and,
// when the world is recording, every retained scheduling record — as one
// string. Two runs of the same scenario must produce byte-identical
// fingerprints, at any shard count and with telemetry on or off.
func (s *Scenario) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d executed=%d\n", int64(s.World.Now()), s.World.Executed())
	fmt.Fprintf(&b, "%s\n", s.FaultReport())
	for _, run := range s.Runs() {
		fmt.Fprintf(&b, "run rounds=%d times=%v\n", run.Rounds(), run.Times())
	}
	for _, n := range s.World.Nodes() {
		fmt.Fprintf(&b, "node%d ctx=%d wakes=%d llc=%d\n",
			n.ID(), n.CtxSwitches(), n.Wakes(), n.LLCMisses())
	}
	for _, vm := range s.World.VMs() {
		fmt.Fprintf(&b, "vm=%s sent=%d recv=%d ctx=%d iowakes=%d run=%d wait=%d spin=%d\n",
			vm.Name(), vm.PacketsSent(), vm.PacketsReceived(), vm.CtxSwitches(),
			vm.IOWakes(), int64(vm.RunTime()), int64(vm.WaitTime()), int64(vm.SpinWaitTotal()))
	}
	var rec telemetry.Snapshot
	if p := s.World.Recording(); p != nil {
		rec = p.Snapshot()
	}
	fmt.Fprintf(&b, "trace dropped=%d\n", rec.DroppedRecords)
	for _, r := range rec.Records {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Scenario {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// SwitchAt schedules a live policy switch: at virtual time at, each
// target node (every node when nodes is empty) requests a swap to spec,
// which lands at that node's next scheduling-period boundary. Each node
// schedules its own event on its own engine, since one event cannot
// reach another node's engine.
func (s *Scenario) SwitchAt(at sim.Time, nodes []int, spec SchedSpec) error {
	f, err := spec.Factory()
	if err != nil {
		return err
	}
	targets := s.World.Nodes()
	if len(nodes) > 0 {
		targets = make([]*vmm.Node, len(nodes))
		for i, n := range nodes {
			if n < 0 || n >= s.Cfg.Nodes {
				return fmt.Errorf("cluster: policy switch for node %d outside cluster of %d nodes", n, s.Cfg.Nodes)
			}
			targets[i] = s.World.Node(n)
		}
	}
	for _, n := range targets {
		n.Engine().At(at, func() {
			if err := n.SwapScheduler(f); err != nil {
				panic(err) // registry factories are non-nil and never build nil
			}
		})
	}
	return nil
}

// VirtualCluster creates nVMs VMs of vcpus VCPUs each, placed round-robin
// over the given node indices (the paper stripes each VC across nodes),
// and returns them.
func (s *Scenario) VirtualCluster(name string, nVMs, vcpus int, nodes []int) []*vmm.VM {
	if len(nodes) == 0 {
		nodes = make([]int, s.Cfg.Nodes)
		for i := range nodes {
			nodes[i] = i
		}
	}
	vms := make([]*vmm.VM, 0, nVMs)
	for i := 0; i < nVMs; i++ {
		n := s.World.Node(nodes[i%len(nodes)])
		vm := n.NewVM(fmt.Sprintf("%s-%d", name, i), vmm.ClassParallel, vcpus, 0, 1)
		vms = append(vms, vm)
	}
	return vms
}

// IndependentVM creates one VM outside any virtual cluster.
func (s *Scenario) IndependentVM(name string, node, vcpus int, class vmm.VMClass) *vmm.VM {
	vm := s.World.Node(node).NewVM(name, class, vcpus, 0, 1)
	if class == vmm.ClassNonParallel && s.Cfg.NonParallelAdminSlice > 0 {
		vm.AdminSlice = s.Cfg.NonParallelAdminSlice
	}
	return vm
}

// RunParallel installs a measured parallel run of profile on the given
// VMs: the scenario completes when every measured run reaches rounds.
// With forever set the application keeps re-running afterwards
// (background load), still counting toward completion at `rounds`.
func (s *Scenario) RunParallel(profile workload.AppProfile, vms []*vmm.VM, rounds int, forever bool) *workload.ParallelRun {
	s.nextVC++
	app := workload.NewBSPApp(profile, vms, s.Cfg.Seed+uint64(s.nextVC)*7919)
	s.pending.Add(1)
	run := workload.NewParallelRun(app, rounds, forever, func() {
		if s.pending.Add(-1) == 0 {
			s.World.Stop()
		}
	})
	run.Install()
	s.runs = append(s.runs, run)
	return run
}

// RunBackground installs a parallel application that reruns forever and
// does not count toward scenario completion — background load for the
// mixed and non-parallel experiments.
func (s *Scenario) RunBackground(profile workload.AppProfile, vms []*vmm.VM) *workload.ParallelRun {
	s.nextVC++
	app := workload.NewBSPApp(profile, vms, s.Cfg.Seed+uint64(s.nextVC)*7919)
	run := workload.NewParallelRun(app, 1, true, nil)
	run.Install()
	return run
}

// Runs returns the measured parallel runs in creation order.
func (s *Scenario) Runs() []*workload.ParallelRun { return s.runs }

// GoFor starts the world and runs it for exactly d of virtual time,
// regardless of measured-run completion — used when the metric is a
// steady-state rate (RTT, bandwidth, response time).
func (s *Scenario) GoFor(d sim.Time) {
	s.World.Start()
	s.advance(d, false)
}

// ContinueFor runs the world for d more virtual time, regardless of
// measured-run completion, letting steady-state job metrics (throughput,
// response time) accumulate while the Forever runs keep the load up.
func (s *Scenario) ContinueFor(d sim.Time) {
	s.advance(s.World.Now()+d, false)
}

// ContinueUntil runs the world in steps of `step` until done reports
// true or `cap` more virtual time has elapsed. It returns the final
// done() value. A measured-run completion does not end a step — the cap,
// not the stop, bounds this drive.
func (s *Scenario) ContinueUntil(done func() bool, step, cap sim.Time) bool {
	deadline := s.World.Now() + cap
	for !done() && s.World.Now() < deadline {
		next := s.World.Now() + step
		if next > deadline {
			next = deadline
		}
		s.advance(next, false)
	}
	return done()
}

// Go starts the world and drives it until every measured run reaches its
// target (or the horizon passes — a safety net against pathological
// schedules). It returns true when all runs completed in time. Go is
// the only drive that ends at measured-run completion.
func (s *Scenario) Go(horizon sim.Time) bool {
	s.World.Start()
	s.advance(horizon, true)
	return s.pending.Load() == 0
}

// auditViolationCap bounds how many violations a sick run retains.
const auditViolationCap = 16

// advance drives the world to the target virtual time, pausing every
// AuditEvery to re-check World.Audit when the audit hook is enabled.
// With untilDone a stop (measured-run completion) ends the advance
// early, and the hook still audits the shutdown state; otherwise each
// step runs on through a stop to its end.
func (s *Scenario) advance(target sim.Time, untilDone bool) {
	every := s.Cfg.AuditEvery
	for s.World.Now() < target {
		next := target
		if every > 0 && s.World.Now()+every < target {
			next = s.World.Now() + every
		}
		stopped := s.World.RunUntil(next)
		for !untilDone && s.World.Now() < next {
			s.World.RunUntil(next)
		}
		if every > 0 {
			s.audit()
		}
		if stopped && untilDone {
			break
		}
	}
	if every > 0 {
		s.audit()
	}
}

// audit runs one World.Audit pass, retaining violations and notifying
// the OnAudit observer.
func (s *Scenario) audit() {
	errs := s.World.Audit()
	if s.Cfg.OnAudit != nil {
		s.Cfg.OnAudit(s.World.Now(), errs)
	}
	for _, err := range errs {
		if len(s.auditViols) >= auditViolationCap {
			return
		}
		s.auditViols = append(s.auditViols, fmt.Errorf("audit at %v: %w", s.World.Now(), err))
	}
}

// AuditViolations returns the invariant violations the periodic audit
// hook collected (nil when AuditEvery is zero or the run stayed
// healthy). At most auditViolationCap violations are retained.
func (s *Scenario) AuditViolations() []error {
	return append([]error(nil), s.auditViols...)
}
