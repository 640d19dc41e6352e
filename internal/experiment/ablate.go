package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/runner"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// ablateVariants are the rows of the ablation table after the full
// design: each removes one piece of ATC's design by changing the default
// options.
var ablateVariants = []struct {
	name string
	mut  func(*atc.Options)
}{
	{"no minimum-slice clamp (10µs floor)", func(o *atc.Options) {
		o.Control.MinThreshold = 10 * sim.Microsecond
		o.Control.Beta = 30 * sim.Microsecond
	}},
	{"no node minimum (per-VM slices, Alg. 2 ablated)", func(o *atc.Options) {
		o.DisableNodeMinimum = true
	}},
	{"trend window 8 (vs paper's 3)", func(o *atc.Options) {
		o.Control.Window = 8
	}},
	{"α = 1.5ms (vs paper's 6ms)", func(o *atc.Options) {
		o.Control.Alpha = 1500 * sim.Microsecond
	}},
	{"credit boost disabled", func(o *atc.Options) {
		o.Credit.Boost = false
	}},
	{"sched-wait signal (non-intrusive monitor)", func(o *atc.Options) {
		o.Monitor = atc.SignalSchedWait
	}},
}

// ablateConfig is the cluster configuration of one ablation cell: ATC
// with the default options changed by mutate (nil: the full design).
func ablateConfig(nodes int, seed uint64, mutate func(*atc.Options)) cluster.Config {
	opts := atc.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	cfg := cluster.DefaultConfig(nodes, cluster.ATC)
	cfg.Sched.Options = opts
	cfg.Seed = seed
	return cfg
}

// ablateExec runs the type-A scenario (four VCs of one VM per node)
// under a customized ATC configuration and returns the mean execution
// time for `kernel`.
func ablateExec(sc Scale, kernel string, nodes int, seed uint64, mutate func(*atc.Options)) (float64, error) {
	cfg := ablateConfig(nodes, seed, mutate)
	t, err := typeAMean(sc, cfg, npb(sc, kernel, workload.ClassB))
	if err != nil {
		return 0, fmt.Errorf("ablate %s: %w", kernel, err)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID: "ablate",
		Title: "Extension — ablation of ATC's design choices (minimum threshold, " +
			"Algorithm 2's node minimum, trend window, α, boost)",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			nodes := sc.NodeSteps[0]
			kernel := "lu"
			// Cell 0 is the full design, cells 1.. the ablated variants;
			// each is an independent world, fanned across the pool.
			execs, err := runner.Map(1+len(ablateVariants), func(i int) (float64, error) {
				if i == 0 {
					return ablateExec(sc, kernel, nodes, seed, nil)
				}
				return ablateExec(sc, kernel, nodes, seed, ablateVariants[i-1].mut)
			})
			if err != nil {
				return nil, err
			}
			base := execs[0]
			t := report.New(
				fmt.Sprintf("%s.B mean execution time under ATC variants (vs the full design; >1 = the removed piece was helping)", kernel),
				"Variant", "Exec(s)", "vs full ATC")
			t.Add("full ATC (paper design)", report.F(base), "1.000")
			for i, v := range ablateVariants {
				t.Add(v.name, report.F(execs[i+1]), report.F(execs[i+1]/base))
			}
			t.AddNote("The paper motivates the clamp (§III-B) and the node minimum (§III-C, fairness + DSS comparison); the non-intrusive signal is its stated future work.")
			return []*report.Table{t}, nil
		},
	})
}
