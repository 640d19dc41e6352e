package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/metrics"
	"atcsched/internal/report"
	"atcsched/internal/runner"
	"atcsched/internal/workload"
)

// typeA runs evaluation type A (§IV-B1) on the cluster cfg describes:
// four identical virtual clusters, each with one vcpus-VCPU VM per node,
// all running prof for sc.Rounds rounds. It returns the finished
// scenario and the four runs.
func typeA(sc Scale, cfg cluster.Config, prof workload.AppProfile, vcpus int) (*cluster.Scenario, []*workload.ParallelRun, error) {
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var runs []*workload.ParallelRun
	for vc := 0; vc < 4; vc++ {
		vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, vcpus, nil)
		runs = append(runs, s.RunParallel(prof, vms, sc.Rounds, false))
	}
	if !s.Go(sc.Horizon) {
		return nil, nil, fmt.Errorf("horizon %v exceeded", sc.Horizon)
	}
	return s, runs, nil
}

// typeAMean runs type A with sc.VCPUsPerVM-VCPU VMs and returns the mean
// execution time across the four clusters.
func typeAMean(sc Scale, cfg cluster.Config, prof workload.AppProfile) (float64, error) {
	_, runs, err := typeA(sc, cfg, prof, sc.VCPUsPerVM)
	if err != nil {
		return 0, err
	}
	var times []float64
	for _, r := range runs {
		times = append(times, r.MeanTime())
	}
	return metrics.Mean(times), nil
}

// typeAExec runs type A for one NPB kernel (class B) under approach and
// returns the mean execution time across the four clusters.
func typeAExec(sc Scale, approach cluster.Approach, kernel string, nodes int, seed uint64) (float64, error) {
	cfg := cluster.DefaultConfig(nodes, approach)
	cfg.Seed = seed
	t, err := typeAMean(sc, cfg, npb(sc, kernel, workload.ClassB))
	if err != nil {
		return 0, fmt.Errorf("%s/%s/%d nodes: %w", approach, kernel, nodes, err)
	}
	return t, nil
}

// npb returns the NPB kernel's profile with its iterations scaled to sc.
func npb(sc Scale, kernel string, class workload.Class) workload.AppProfile {
	prof := workload.NPB(kernel, class)
	prof.Iterations = iterCount(prof.Iterations, sc.IterScale)
	return prof
}

func iterCount(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 3 {
		n = 3
	}
	return n
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1 — CR vs CS running lu on growing virtual clusters",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			t := report.New(
				"Normalized execution time of lu (vs CR at each size); paper: CS degrades from 0.30 at 2 VMs to 0.44 at 32 VMs",
				"VMs per VC", "CR", "CS", "CS normalized")
			approaches := []cluster.Approach{cluster.CR, cluster.CS}
			// Each (node count, approach) cell is an independent cluster
			// run; fan them across the worker pool.
			cells, err := runner.Grid(len(sc.NodeSteps), len(approaches), func(r, c int) (float64, error) {
				return typeAExec(sc, approaches[c], "lu", sc.NodeSteps[r], seed)
			})
			if err != nil {
				return nil, err
			}
			for i, nodes := range sc.NodeSteps {
				cr, cs := cells[i][0], cells[i][1]
				t.Add(report.I(nodes), report.F(cr)+"s", report.F(cs)+"s", report.F(cs/cr))
			}
			t.AddNote("Shape check: CS < CR everywhere, but CS/CR grows with cluster size (CS lacks scalability).")
			return []*report.Table{t}, nil
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10 — six kernels under BS/CS/DSS/ATC vs CR, scaling physical nodes",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			approaches := []cluster.Approach{cluster.CR, cluster.BS, cluster.CS, cluster.DSS, cluster.ATC}
			kernels := workload.NPBKernels()
			steps := sc.NodeSteps
			// The full (kernel × node count × approach) cube is independent
			// cells; flatten it through one pool dispatch.
			nA := len(approaches)
			cube, err := runner.Map(len(kernels)*len(steps)*nA, func(i int) (float64, error) {
				k, rest := i/(len(steps)*nA), i%(len(steps)*nA)
				return typeAExec(sc, approaches[rest%nA], kernels[k], steps[rest/nA], seed)
			})
			if err != nil {
				return nil, err
			}
			var tables []*report.Table
			for k, kernel := range kernels {
				t := report.New(
					fmt.Sprintf("Normalized execution time of %s.B (vs CR at each node count)", kernel),
					"Nodes", "CR(s)", "BS", "CS", "DSS", "ATC")
				for si, nodes := range steps {
					cell := cube[(k*len(steps)+si)*nA:]
					cr := cell[0]
					row := []string{report.I(nodes), report.F(cr)}
					for a := 1; a < nA; a++ {
						row = append(row, report.F(cell[a]/cr))
					}
					t.Add(row...)
				}
				t.AddNote("Shape check: ATC lowest and flattest; CS between BS and ATC; BS→1 as nodes grow; ATC gains 1.5-10x vs CR.")
				tables = append(tables, t)
			}
			return tables, nil
		},
	})
}
