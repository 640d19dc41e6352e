package daemon

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// SimBackend closes the control loop against a live simulated cluster:
// one cluster.Scenario running under the externally-controlled credit
// scheduler (credit.External, policy EXT); SampleFleet advances the
// simulation one scheduling period and reads each guest VM's spinlock
// latency, one batch per node; ApplyNode writes a node's slice decisions back into
// its scheduler. This is the in-repo stand-in for a dom0 deployment
// where atcd adjusts real hypervisor knobs — the same Fleet code drives
// both, one fleet node per simulated node.
type SimBackend struct {
	World  *vmm.World
	period sim.Time
	// MaxPeriods bounds the run: once it is spent, SampleFleet returns
	// an error IsDone recognizes.
	MaxPeriods int
	periods    int
	scen       *cluster.Scenario
	runs       []*workload.ParallelRun
	switches   []PolicySwitch
}

// SimBackendConfig sizes the embedded scenario.
type SimBackendConfig struct {
	// Nodes and VCPUsPerVM size the cluster (defaults 2 and 8).
	Nodes      int
	VCPUsPerVM int
	// Clusters is the number of identical virtual clusters (default 4).
	Clusters int
	// Kernel/Class pick the application (Kernel defaults to lu; the zero
	// Class is workload.ClassA).
	Kernel string
	Class  workload.Class
	// MaxPeriods bounds the control loop (default 400 periods = 12 s).
	MaxPeriods int
	// Seed drives the workloads.
	Seed uint64
	// Switches schedules live policy replacements during the run. A node
	// switched away from EXT stops accepting the daemon's slices
	// (ApplyNode skips it) until a later switch brings EXT back.
	Switches []PolicySwitch
	// Faults, when non-nil, attaches a deterministic fault-injection
	// plan (internal/fault) to the embedded cluster: stragglers, packet
	// loss, monitor faults, and actuation failures the daemon's
	// hardened loop must ride out.
	Faults *fault.Spec
	// Telemetry, when non-nil, attaches a telemetry plane to the
	// embedded world before it starts, so a live atcd run exposes
	// per-node spin-latency and slice series over HTTP.
	Telemetry *telemetry.Plane
	// Hollow shrinks each node to kubemark proportions (two PCPUs,
	// single-VCPU dom0, one single-VCPU VM per node running a light
	// ring-exchange kernel) so a thousand-node fleet stays buildable:
	// the fleet harness measures control-plane throughput, not
	// scheduler policy. Clusters defaults to 1 and VCPUsPerVM is forced
	// to 1 in this mode.
	Hollow bool
}

// PolicySwitch flips a node's scheduling policy at a control period.
type PolicySwitch struct {
	// AtPeriod is the control period (1-based) before which the switch is
	// requested; the node applies it at its next period boundary.
	AtPeriod int
	// Node is the target node index, or -1 for every node.
	Node int
	// Kind names the replacement policy (registry defaults are used).
	Kind string
}

// NewSimBackend builds the cluster and returns the backend, which
// implements both FleetSource and FleetActuator.
func NewSimBackend(cfg SimBackendConfig) (*SimBackend, error) { return newSimBackend(cfg, "EXT") }

// newSimBackend builds the backend's world under policy kind (EXT, or a
// self-adapting policy to compare the daemon against).
func newSimBackend(cfg SimBackendConfig, kind cluster.Approach) (*SimBackend, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.VCPUsPerVM == 0 {
		cfg.VCPUsPerVM = 8
	}
	if cfg.Clusters == 0 {
		cfg.Clusters = 4
		if cfg.Hollow {
			cfg.Clusters = 1
		}
	}
	if cfg.Kernel == "" {
		cfg.Kernel = "lu"
	}
	if cfg.MaxPeriods == 0 {
		cfg.MaxPeriods = 400
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	for _, sw := range cfg.Switches {
		if sw.AtPeriod < 1 || sw.AtPeriod > cfg.MaxPeriods {
			return nil, fmt.Errorf("sim backend: switch period %d outside the run's periods 1..%d", sw.AtPeriod, cfg.MaxPeriods)
		}
		if sw.Node < -1 || sw.Node >= cfg.Nodes {
			return nil, fmt.Errorf("sim backend: switch node %d out of range", sw.Node)
		}
		if err := registry.Validate(sw.Kind, nil); err != nil {
			return nil, fmt.Errorf("sim backend: %w", err)
		}
	}
	ccfg := cluster.DefaultConfig(cfg.Nodes, kind)
	prof := workload.NPB(cfg.Kernel, cfg.Class)
	if cfg.Hollow {
		ccfg = cluster.HollowConfig(cfg.Nodes, kind)
		cfg.VCPUsPerVM = 1
		prof = workload.HollowRing()
	}
	ccfg.Seed, ccfg.Faults, ccfg.Telemetry = cfg.Seed, cfg.Faults, cfg.Telemetry
	s, err := cluster.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("sim backend: %w", err)
	}
	b := &SimBackend{World: s.World, period: ccfg.Node.SchedPeriod, MaxPeriods: cfg.MaxPeriods, scen: s, switches: cfg.Switches}
	for vc := 0; vc < cfg.Clusters; vc++ {
		vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, cfg.VCPUsPerVM, nil)
		// Seeded per cluster index rather than by Scenario.RunBackground,
		// so the daemon's runs keep their established workloads.
		run := workload.NewParallelRun(workload.NewBSPApp(prof, vms, cfg.Seed+uint64(vc)), 1, true, nil)
		run.Install()
		b.runs = append(b.runs, run)
	}
	s.World.Start()
	return b, nil
}

// Runs exposes the embedded applications' runners (for measurements).
func (b *SimBackend) Runs() []*workload.ParallelRun { return b.runs }

// Periods returns the control periods executed so far.
func (b *SimBackend) Periods() int { return b.periods }

// errDone signals a clean end of the bounded run.
type errDone struct{}

func (errDone) Error() string { return "sim backend: period budget exhausted" }

// IsDone reports whether err is the backend's clean-termination error.
func IsDone(err error) bool {
	_, ok := err.(errDone)
	return ok
}

// advance runs the cluster one scheduling period forward.
func (b *SimBackend) advance() error {
	if b.periods >= b.MaxPeriods {
		return errDone{}
	}
	b.periods++
	if err := b.applySwitches(); err != nil {
		return err
	}
	b.scen.ContinueFor(b.period)
	return nil
}

// FaultReport returns the attached fault plan's injection tallies (zero
// when no faults were configured).
func (b *SimBackend) FaultReport() fault.Report { return b.scen.FaultReport() }

// FinalizeTelemetry publishes end-of-run totals from the embedded world
// and fault plan into the configured telemetry plane (no-op without one).
func (b *SimBackend) FinalizeTelemetry() { b.scen.FinalizeTelemetry() }

// applySwitches requests the policy switches due at the current control
// period; each lands on its node's next scheduling-period boundary. They
// are requested now, at the paused instant, not scheduled ahead at
// construction: an event created then for this instant would fire before
// the instant's period tick and land one period early.
func (b *SimBackend) applySwitches() error {
	for _, sw := range b.switches {
		if sw.AtPeriod != b.periods {
			continue
		}
		var nodes []int // every node
		if sw.Node >= 0 {
			nodes = []int{sw.Node}
		}
		if err := b.scen.SwitchAt(b.World.Now(), nodes, cluster.SchedSpec{Kind: cluster.Approach(sw.Kind)}); err != nil {
			return fmt.Errorf("sim backend: %w", err)
		}
	}
	return nil
}

// SampleFleet implements FleetSource: advance one scheduling period and
// report each node's VM samples as one batch, sorted by node ID. A node
// whose monitors all dropped out still gets an (empty) batch, so its
// controller sees the dropout and degrades. While a daemon-crash fault
// window is open the control plane is dark — no batches are produced
// (the monitors keep accumulating, so the first post-blackout sample
// covers the whole gap) and the period is tallied in the fault report.
func (b *SimBackend) SampleFleet() ([]NodeBatch, error) {
	if err := b.advance(); err != nil {
		return nil, err
	}
	if plan := b.scen.FaultPlan(); plan.DaemonDown(b.World.Now()) {
		plan.CountDarkPeriod()
		return nil, nil
	}
	out := make([]NodeBatch, len(b.World.Nodes()))
	for i := range out {
		out[i].Node = i
	}
	for _, vm := range b.World.GuestVMs() {
		s, ok := vm.SpinSample()
		if !ok {
			continue // monitoring dropout: this VM reports nothing this period
		}
		n := vm.Node().ID()
		out[n].Samples = append(out[n].Samples, s)
	}
	return out, nil
}

// ApplyNode implements FleetActuator: write one node's slices into its
// externally-controlled scheduler. Nodes switched to a self-adapting
// policy (via PolicySwitch) own their slices and are skipped. The
// fleet's workers call it for different nodes concurrently.
func (b *SimBackend) ApplyNode(node int, slices map[int]sim.Time) error {
	if node < 0 || node >= len(b.World.Nodes()) {
		return fmt.Errorf("sim backend: actuation for unknown node %d", node)
	}
	// Fleet workers apply concurrently; the world is quiescent meanwhile
	// (it only advances in SampleFleet) and the plan draws per node.
	if err := b.scen.FaultPlan().FailActuation(node, b.World.Now()); err != nil {
		return err
	}
	n := b.World.Node(node)
	ext, ok := n.Scheduler().(*credit.External)
	if !ok {
		return nil
	}
	for _, vm := range n.VMs() {
		if sl, ok := slices[vm.ID()]; ok {
			ext.SetSlice(vm, sl)
		}
	}
	return nil
}

// NodePolicies returns each node's current scheduler policy name,
// indexed by node ID — the fleet table's policy column.
func (b *SimBackend) NodePolicies() []string {
	nodes := b.World.Nodes()
	out := make([]string, len(nodes))
	for _, n := range nodes {
		out[n.ID()] = n.Scheduler().Name()
	}
	return out
}

// Now exposes the embedded world's virtual clock (telemetry axis).
func (b *SimBackend) Now() sim.Time { return b.World.Now() }

var (
	_ FleetSource   = (*SimBackend)(nil)
	_ FleetActuator = (*SimBackend)(nil)
)
