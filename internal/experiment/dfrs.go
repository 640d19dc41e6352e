package experiment

import (
	"fmt"
	"hash/fnv"

	"atcsched/internal/cluster"
	"atcsched/internal/metrics"
	"atcsched/internal/report"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// The head-to-head drives every cell through the same phase plan, in
// units of the 300 ms switch window: a warmup under the starting policy,
// the live flip (switch scenario only) plus a settling phase, then the
// measured phase all metrics are taken over.
const (
	dfrsWarmupWindows  = 6
	dfrsSettleWindows  = 2
	dfrsMeasureWindows = 8
)

// dfrsKinds are the head-to-head columns: the credit baseline, the
// paper's adaptive slices, pure fractional shares, and the hybrid.
var dfrsKinds = []cluster.Approach{cluster.CR, cluster.ATC, cluster.DFRS, cluster.ATCDFRS}

// dfrsScenario is one row of the scenario matrix. There is no shard
// row: results are byte-identical at every shard count, which the
// determinism table proves.
type dfrsScenario struct {
	name    string
	faulted bool // inject the faults experiment's straggler + packet loss
	flip    bool // start under CR and live-switch to the cell's kind
}

var dfrsScenarios = []dfrsScenario{
	{name: "baseline"},
	{name: "faulted", faulted: true},
	{name: "switch", flip: true},
}

// dfrsCell is one measured (scenario, policy) cell.
type dfrsCell struct {
	spin float64 // mean spin latency over the measured phase (seconds)
	tput float64 // parallel BSP process rounds retired per virtual second
	fair float64 // Jain fairness index over parallel VMs' measured CPU time
}

// dfrsWorkload installs the shared tenant mix: two striped parallel
// virtual clusters running lu forever (the spin-latency victims) plus a
// web pair and a disk hog (the demand the fraction pool redistributes
// over).
func dfrsWorkload(s *cluster.Scenario, sc Scale, seed uint64) {
	luTenants(s, sc)
	server := s.IndependentVM("web-srv", 0, 2, vmm.ClassNonParallel)
	client := s.IndependentVM("web-cli", 1%s.Cfg.Nodes, 2, vmm.ClassNonParallel)
	workload.NewWebJob(client, 0, server, 0, 20*sim.Millisecond, 2*sim.Millisecond, seed)
	disk := s.IndependentVM("disk", 0, 1, vmm.ClassNonParallel)
	workload.NewDiskJob(disk.VCPU(0))
}

// dfrsRunCell measures one (scenario, policy) cell.
func dfrsRunCell(sc Scale, seed uint64, scen dfrsScenario, kind cluster.Approach) (dfrsCell, error) {
	nodes := sc.NodeSteps[0]
	start := kind
	if scen.flip {
		start = cluster.CR
	}
	cfg := cluster.DefaultConfig(nodes, start)
	cfg.Seed = seed
	if scen.faulted {
		cfg.Faults = faultSpec()
	}
	s, err := cluster.New(cfg)
	if err != nil {
		return dfrsCell{}, err
	}
	dfrsWorkload(s, sc, seed)

	s.GoFor(dfrsWarmupWindows * switchWindow)
	if scen.flip {
		if err := s.SwitchAt(s.World.Now(), nil, cluster.SchedSpec{Kind: kind}); err != nil {
			return dfrsCell{}, err
		}
		s.ContinueFor(dfrsSettleWindows * switchWindow)
	}

	// Zero the measurement baselines at the phase boundary.
	var watch spinWatch
	watch.delta(s.World)
	parallel := s.World.GuestVMs()[:0:0]
	var rounds0 uint64
	run0 := map[int]sim.Time{}
	for _, vm := range s.World.GuestVMs() {
		if vm.Class() != vmm.ClassParallel {
			continue
		}
		parallel = append(parallel, vm)
		run0[vm.ID()] = vm.RunTime()
		for _, v := range vm.VCPUs() {
			rounds0 += v.Rounds()
		}
	}

	s.ContinueFor(dfrsMeasureWindows * switchWindow)

	cell := dfrsCell{spin: watch.delta(s.World).Seconds()}
	var rounds1 uint64
	var cpu []float64
	for _, vm := range parallel {
		cpu = append(cpu, (vm.RunTime() - run0[vm.ID()]).Seconds())
		for _, v := range vm.VCPUs() {
			rounds1 += v.Rounds()
		}
	}
	cell.tput = float64(rounds1-rounds0) / (dfrsMeasureWindows * switchWindow).Seconds()
	cell.fair = metrics.Jain(cpu)

	if scen.flip {
		for _, n := range s.World.Nodes() {
			if n.Swaps() != 1 {
				return dfrsCell{}, fmt.Errorf("dfrs: node %d swaps = %d, want 1", n.ID(), n.Swaps())
			}
		}
	}
	if errs := s.World.Audit(); len(errs) > 0 {
		return dfrsCell{}, fmt.Errorf("dfrs: audit under %s/%s: %v", scen.name, kind, errs[0])
	}
	return cell, nil
}

// dfrsShardCounts are the engine configurations the determinism table
// fingerprints.
var dfrsShardCounts = []int{1, 2, 4, 8}

// dfrsFingerprint runs a short measured scenario under kind on the given
// shard count with scheduling records on and returns the 64-bit
// FNV-1a of its cluster.Scenario fingerprint. Byte-identical runs hash
// identically.
func dfrsFingerprint(sc Scale, seed uint64, kind cluster.Approach, shards int) (string, error) {
	nodes := sc.NodeSteps[len(sc.NodeSteps)-1]
	cfg := cluster.DefaultConfig(nodes, kind)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Faults = faultSpec()
	s, err := cluster.New(cfg)
	if err != nil {
		return "", err
	}
	s.World.SetRecording(telemetry.New(telemetry.Options{RecordCap: timelineTraceCap}))
	prof := npb(sc, "lu", workload.ClassA)
	vms := s.VirtualCluster("vc0", nodes, 2, nil)
	s.RunParallel(prof, vms, 2, false)
	server := s.IndependentVM("web-srv", 0, 2, vmm.ClassNonParallel)
	client := s.IndependentVM("web-cli", 1%nodes, 2, vmm.ClassNonParallel)
	workload.NewWebJob(client, 0, server, 0, 20*sim.Millisecond, 2*sim.Millisecond, seed)
	if !s.Go(sc.Horizon) {
		return "", fmt.Errorf("dfrs: fingerprint run under %s shards=%d incomplete", kind, shards)
	}
	if errs := s.World.Audit(); len(errs) > 0 {
		return "", fmt.Errorf("dfrs: fingerprint audit under %s shards=%d: %v", kind, shards, errs[0])
	}

	h := fnv.New64a()
	h.Write([]byte(s.Fingerprint()))
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// dfrsShowcaseTraceCap keeps the showcase's scheduling records — and
// with them the exported timeline artifact — small enough to commit as a
// golden file: each node keeps its newest records, and the overflow
// shows up only as the drop counter.
const dfrsShowcaseTraceCap = 2000

// DFRSShowcase runs a short instrumented hybrid run — the fractional
// plane redistributing around live parallel load — with the telemetry
// plane and scheduling records attached, for the timeline/JSONL exports:
// vm_fraction series and redistribute spans from the DFRS side, spin
// episodes and slice changes from the ATC side, on one sim-time axis.
// The tenant mix is deliberately tiny (one 2×2 lu cluster plus a web
// pair and a disk hog on two nodes) so the artifacts stay golden-sized.
func DFRSShowcase(sc Scale, seed uint64) (*TimelineResult, error) {
	cfg := cluster.DefaultConfig(2, cluster.ATCDFRS)
	cfg.Seed = seed
	return showcase("dfrs showcase", cfg, dfrsShowcaseTraceCap, 2*switchWindow, func(s *cluster.Scenario) {
		s.RunBackground(npb(sc, "lu", workload.ClassA), s.VirtualCluster("vc0", 2, 2, nil))
		server := s.IndependentVM("web-srv", 0, 1, vmm.ClassNonParallel)
		client := s.IndependentVM("web-cli", 1, 1, vmm.ClassNonParallel)
		workload.NewWebJob(client, 0, server, 0, 20*sim.Millisecond, 2*sim.Millisecond, seed)
		disk := s.IndependentVM("disk", 0, 1, vmm.ClassNonParallel)
		workload.NewDiskJob(disk.VCPU(0))
	})
}

func init() {
	register(Experiment{
		ID: "dfrs",
		Title: "Extension — fractional-share head-to-head: CR vs ATC vs DFRS vs " +
			"ATC×DFRS across baseline, faulted and live-switch scenarios",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			t := report.New(
				"spin latency, parallel throughput and CPU-time fairness per (scenario, policy) cell",
				"Scenario", "Policy", "Spin mean", "Rounds/s", "Jain CPU")
			cells, err := runner.Grid(len(dfrsScenarios), len(dfrsKinds),
				func(r, c int) (dfrsCell, error) {
					return dfrsRunCell(sc, seed, dfrsScenarios[r], dfrsKinds[c])
				})
			if err != nil {
				return nil, err
			}
			for r, scen := range dfrsScenarios {
				for c, kind := range dfrsKinds {
					cell := cells[r][c]
					t.Add(scen.name, string(kind),
						fmt.Sprintf("%.0fµs", cell.spin*1e6),
						fmt.Sprintf("%.1f", cell.tput),
						fmt.Sprintf("%.3f", cell.fair))
				}
			}
			t.AddNote("every cell runs the same tenant mix (2 striped lu clusters + web pair + disk hog) "+
				"for %d measured windows of %v after warmup; the switch rows start under CR and flip live.",
				dfrsMeasureWindows, switchWindow)
			t.AddNote("DFRS gives non-parallel tenants demand-driven CPU fractions; the hybrid adds " +
				"ATC's adaptive slices for parallel tenants on top.")

			ft := report.New(
				"determinism fingerprints (FNV-1a 64) of a traced DFRS-family run per engine configuration",
				"Policy", "shards=1", "shards=2", "shards=4", "shards=8")
			for _, kind := range []cluster.Approach{cluster.DFRS, cluster.ATCDFRS} {
				hashes, err := runner.Map(len(dfrsShardCounts), func(i int) (string, error) {
					return dfrsFingerprint(sc, seed, kind, dfrsShardCounts[i])
				})
				if err != nil {
					return nil, err
				}
				for i := 1; i < len(hashes); i++ {
					if hashes[i] != hashes[0] {
						return nil, fmt.Errorf("dfrs: %s fingerprint diverged: shards=%d %s vs shards=1 %s",
							kind, dfrsShardCounts[i], hashes[i], hashes[0])
					}
				}
				ft.Add(append([]string{string(kind)}, hashes...)...)
			}
			ft.AddNote("every shard count must be byte-identical (enforced; a mismatch fails the experiment).")
			return []*report.Table{t, ft}, nil
		},
	})
}
