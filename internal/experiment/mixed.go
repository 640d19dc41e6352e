package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/rng"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/trace"
	"atcsched/internal/vmm"
	"atcsched/internal/workload"
)

// placer balances VM placement over nodes, striping each virtual
// cluster across distinct least-loaded nodes (the paper places sibling
// VMs of a VC on different physical machines).
type placer struct {
	load []int
}

func newPlacer(nodes int) *placer { return &placer{load: make([]int, nodes)} }

// forVC returns nVMs node indices, distinct while possible.
func (p *placer) forVC(nVMs int) []int {
	out := make([]int, 0, nVMs)
	usedThisRound := make(map[int]bool)
	for len(out) < nVMs {
		best := -1
		for n := range p.load {
			if usedThisRound[n] {
				continue
			}
			if best < 0 || p.load[n] < p.load[best] {
				best = n
			}
		}
		if best < 0 { // all nodes used this round; start another stripe
			usedThisRound = make(map[int]bool)
			continue
		}
		usedThisRound[best] = true
		p.load[best]++
		out = append(out, best)
	}
	return out
}

// one returns the least-loaded node.
func (p *placer) one() int {
	best := 0
	for n := range p.load {
		if p.load[n] < p.load[best] {
			best = n
		}
	}
	p.load[best]++
	return best
}

// fig2Result holds one approach's §II-A2 measurements.
type fig2Result struct {
	bonnie float64 // MB/s
	sphinx float64 // seconds per round
	stream float64 // MB/s
	ping   float64 // seconds RTT
}

func runFig2Approach(sc Scale, a cluster.Approach, seed uint64) (fig2Result, error) {
	cfg := cluster.DefaultConfig(2, a)
	cfg.Seed = seed
	s, err := cluster.New(cfg)
	if err != nil {
		return fig2Result{}, err
	}
	// Three virtual clusters of two VMs each, background NPB load.
	for vc := 0; vc < 3; vc++ {
		prof := npb(sc, workload.NPBKernels()[vc], workload.ClassB)
		s.RunBackground(prof, s.VirtualCluster(fmt.Sprintf("vc%d", vc), 2, sc.VCPUsPerVM, nil))
	}
	npA := s.IndependentVM("np-a", 0, sc.VCPUsPerVM, vmm.ClassNonParallel)
	npB := s.IndependentVM("np-b", 1, sc.VCPUsPerVM, vmm.ClassNonParallel)
	bonnie := workload.NewDiskJob(npA.VCPU(0))
	sphinx := workload.NewCPUJob(npA.VCPU(1), workload.SPECProfiles()[2])
	stream := workload.NewStreamJob(npB.VCPU(0))
	ping := workload.NewPingJob(npB, 1, npA, 2, 10*sim.Millisecond)
	s.GoFor(40 * sim.Second)
	return fig2Result{
		bonnie: bonnie.ThroughputMBps(),
		sphinx: sphinx.MeanTime(),
		stream: stream.BandwidthMBps(),
		ping:   ping.MeanRTT(),
	}, nil
}

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2 — CS impact on non-parallel applications (vs CR)",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			approaches := []cluster.Approach{cluster.CR, cluster.CS}
			res, err := runner.Map(len(approaches), func(i int) (fig2Result, error) {
				return runFig2Approach(sc, approaches[i], seed)
			})
			if err != nil {
				return nil, err
			}
			cr, cs := res[0], res[1]
			t := report.New(
				"Non-parallel metrics under CR and CS (paper: ping RTT 1.75x, sphinx3 1.11x under CS; stream slightly lower; bonnie++ unchanged)",
				"Application", "Metric", "CR", "CS", "CS/CR")
			t.Add("bonnie++", "throughput MB/s", report.F2(cr.bonnie), report.F2(cs.bonnie), report.F(cs.bonnie/cr.bonnie))
			t.Add("sphinx3", "round time s", report.F(cr.sphinx), report.F(cs.sphinx), report.F(cs.sphinx/cr.sphinx))
			t.Add("stream", "bandwidth MB/s", report.F2(cr.stream), report.F2(cs.stream), report.F(cs.stream/cr.stream))
			t.Add("ping", "RTT", report.Ms(cr.ping), report.Ms(cs.ping), report.F(cs.ping/cr.ping))
			return []*report.Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11 — mixed parallel applications on the Table-I tenant layout",
		Run:   runFig11,
	})

	// Figures 12-14 each report one table of the shared, memoized run.
	mixedTable := func(pick func(*mixedResult) *report.Table) func(Scale, uint64) ([]*report.Table, error) {
		return func(sc Scale, seed uint64) ([]*report.Table, error) {
			r, err := mixedNonparallel(sc, seed)
			if err != nil {
				return nil, err
			}
			return []*report.Table{pick(r)}, nil
		}
	}
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12 — parallel performance with non-parallel co-tenants (incl. VS, ATC(6ms))",
		Run:   mixedTable(func(r *mixedResult) *report.Table { return r.parallel }),
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13 — web server, bonnie++ and stream under all approaches",
		Run:   mixedTable(func(r *mixedResult) *report.Table { return r.ioApps }),
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14 — CPU-intensive applications under all approaches",
		Run:   mixedTable(func(r *mixedResult) *report.Table { return r.cpuApps }),
	})

	register(Experiment{
		ID:    "tab1",
		Title: "Table I — LLNL Atlas job-size distribution and synthesized layouts",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			t1 := report.New("Table I — share of Atlas jobs by processor count", "Processors", "Share")
			for _, s := range trace.TableI() {
				name := report.I(s.Processors)
				if s.Processors == 0 {
					name = "others"
				}
				t1.Add(name, fmt.Sprintf("%.1f%%", s.Share*100))
			}
			layout := trace.PaperLayout()
			t2 := report.New("Derived §IV-B2 population (128 8-VCPU VMs on 32 nodes)", "Cluster", "VMs", "VCPUs")
			for _, c := range layout.Clusters {
				t2.Add(c.Name, report.I(c.VMs), report.I(c.VMs*8))
			}
			t2.Add("independent", report.I(layout.Independent), report.I(layout.Independent*8))
			scaled, err := trace.ScaledLayout(4 * sc.MixNodes)
			if err != nil {
				return nil, err
			}
			t3 := report.New(fmt.Sprintf("Scaled layout used at %q scale (%d VMs)", sc.Name, scaled.TotalVMs()),
				"Cluster", "VMs")
			for _, c := range scaled.Clusters {
				t3.Add(c.Name, report.I(c.VMs))
			}
			t3.Add("independent", report.I(scaled.Independent))
			return []*report.Table{t1, t2, t3}, nil
		},
	})
}

// mixedLayout builds the trace-driven scenario shared by Figures 11-14:
// the virtual clusters (with their kernels) and the independent VMs.
func mixedLayout(sc Scale, seed uint64) (trace.Layout, []string, error) {
	layout, err := trace.ScaledLayout(4 * sc.MixNodes)
	if err != nil {
		return trace.Layout{}, nil, err
	}
	src := rng.NewStream(seed, 0x11)
	kernels := make([]string, len(layout.Clusters))
	all := workload.NPBKernels()
	for i := range kernels {
		kernels[i] = all[src.Intn(len(all))]
	}
	return layout, kernels, nil
}

// tableIClusters installs layout's virtual clusters on s, each striped
// over distinct least-loaded nodes by pl and running its kernel (class
// B) as a measured run of sc.Rounds rounds that then reruns forever. It
// returns the clusters' row names, "VC1(sp)".
func tableIClusters(s *cluster.Scenario, sc Scale, pl *placer, layout trace.Layout, kernels []string) []string {
	names := make([]string, len(layout.Clusters))
	for i, vc := range layout.Clusters {
		vms := s.VirtualCluster(vc.Name, vc.VMs, sc.VCPUsPerVM, pl.forVC(vc.VMs))
		s.RunParallel(npb(sc, kernels[i], workload.ClassB), vms, sc.Rounds, true)
		names[i] = fmt.Sprintf("%s(%s)", vc.Name, kernels[i])
	}
	return names
}

// tableIIndependent installs the layout's i-th independent parallel VM
// on pl's least-loaded node, running lu.B (even i) or is.B (odd i) alone:
// a measured run of sc.Rounds rounds when measured is set, background
// load otherwise. It returns the kernel.
func tableIIndependent(s *cluster.Scenario, sc Scale, pl *placer, i int, measured bool) string {
	k := []string{"lu", "is"}[i%2]
	prof := npb(sc, k, workload.ClassB)
	vms := []*vmm.VM{s.IndependentVM(fmt.Sprintf("ind%d", i), pl.one(), sc.VCPUsPerVM, vmm.ClassParallel)}
	if measured {
		s.RunParallel(prof, vms, sc.Rounds, true)
	} else {
		s.RunBackground(prof, vms)
	}
	return k
}

// runFig11 measures every virtual cluster (and two independent VMs
// running single-VM lu/is) under CR, BS, CS, DSS and ATC.
func runFig11(sc Scale, seed uint64) ([]*report.Table, error) {
	layout, kernels, err := mixedLayout(sc, seed)
	if err != nil {
		return nil, err
	}
	approaches := []cluster.Approach{cluster.CR, cluster.BS, cluster.CS, cluster.DSS, cluster.ATC}
	type fig11Cell struct {
		row   []float64 // mean exec seconds per entity
		names []string
	}
	// One full Table-I scenario per approach; the five runs are
	// independent worlds, so fan them across the worker pool.
	cells, err := runner.Map(len(approaches), func(ai int) (fig11Cell, error) {
		a := approaches[ai]
		cfg := cluster.DefaultConfig(sc.MixNodes, a)
		cfg.Seed = seed
		s, err := cluster.New(cfg)
		if err != nil {
			return fig11Cell{}, err
		}
		pl := newPlacer(sc.MixNodes)
		rowNames := tableIClusters(s, sc, pl, layout, kernels)
		// Independent VMs run lu.B or is.B alone; measure the first two,
		// the rest are background.
		for i := 0; i < layout.Independent; i++ {
			k := tableIIndependent(s, sc, pl, i, i < 2)
			if i < 2 {
				rowNames = append(rowNames, fmt.Sprintf("IND%d(%s)", i+1, k))
			}
		}
		if !s.Go(sc.Horizon) {
			return fig11Cell{}, fmt.Errorf("fig11/%s: horizon exceeded", a)
		}
		row := make([]float64, len(s.Runs()))
		for i, r := range s.Runs() {
			row[i] = r.MeanTime()
		}
		return fig11Cell{row: row, names: rowNames}, nil
	})
	if err != nil {
		return nil, err
	}
	// results[approach][entity] = mean exec seconds.
	results := make(map[cluster.Approach][]float64, len(approaches))
	for i, a := range approaches {
		results[a] = cells[i].row
	}
	names := cells[0].names
	t := report.New(
		"Normalized execution time per virtual cluster (vs CR); paper Fig. 11: ATC best everywhere (e.g. VC1 sp: ATC 0.25, DSS 0.45, CS 0.49, BS 0.9)",
		"Entity", "CR(s)", "BS", "CS", "DSS", "ATC")
	for i, name := range names {
		cr := results[cluster.CR][i]
		t.Add(name, report.F(cr),
			report.F(results[cluster.BS][i]/cr),
			report.F(results[cluster.CS][i]/cr),
			report.F(results[cluster.DSS][i]/cr),
			report.F(results[cluster.ATC][i]/cr))
	}
	return []*report.Table{t}, nil
}
