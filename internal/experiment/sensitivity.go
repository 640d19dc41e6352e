package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// sensGain measures the ATC/CR execution-time gain for one kernel under
// a mutated model configuration — the sensitivity probe.
func sensGain(sc Scale, kernel string, seed uint64,
	mutCfg func(*cluster.Config), mutProf func(*workload.AppProfile)) (float64, error) {
	run := func(a cluster.Approach) (float64, error) {
		cfg := cluster.DefaultConfig(2, a)
		cfg.Seed = seed
		if mutCfg != nil {
			mutCfg(&cfg)
		}
		prof := npb(sc, kernel, workload.ClassB)
		if mutProf != nil {
			mutProf(&prof)
		}
		t, err := typeAMean(sc, cfg, prof)
		if err != nil {
			return 0, fmt.Errorf("sens %s/%s: %w", kernel, a, err)
		}
		return t, nil
	}
	cr, err := run(cluster.CR)
	if err != nil {
		return 0, err
	}
	atcT, err := run(cluster.ATC)
	if err != nil {
		return 0, err
	}
	return cr / atcT, nil
}

func init() {
	register(Experiment{
		ID: "sens",
		Title: "Extension — sensitivity of the ATC/CR gain to model constants " +
			"(how robust is the reproduction to calibration choices?)",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			t := report.New(
				"ATC/CR execution-time gain for lu.B under perturbed model constants (baseline row first; the qualitative conclusion should survive every row)",
				"Variant", "ATC/CR gain")
			type variant struct {
				name string
				cfg  func(*cluster.Config)
				prof func(*workload.AppProfile)
			}
			variants := []variant{
				{name: "baseline"},
				{name: "recv-poll 0 (blocking MPI)", prof: func(p *workload.AppProfile) { p.RecvPoll = 0 }},
				{name: "recv-poll 1ms", prof: func(p *workload.AppProfile) { p.RecvPoll = sim.Millisecond }},
				{name: "recv-poll forever", prof: func(p *workload.AppProfile) { p.RecvPoll = -1 }},
				{name: "netback cost x3", cfg: func(c *cluster.Config) { c.Node.BackendPacketCost *= 3 }},
				{name: "ctx-switch cost x4", cfg: func(c *cluster.Config) { c.Node.CtxSwitchCost *= 4 }},
				{name: "half LLC capacity", cfg: func(c *cluster.Config) { c.Node.Cache.Capacity /= 2 }},
				{name: "double wire latency", cfg: func(c *cluster.Config) { c.Net.WireLatency *= 2 }},
			}
			// Each variant's CR/ATC pair is an independent probe; fan the
			// whole set across the worker pool.
			gains, err := runner.Map(len(variants), func(i int) (float64, error) {
				v := variants[i]
				return sensGain(sc, "lu", seed, v.cfg, v.prof)
			})
			if err != nil {
				return nil, err
			}
			for i, v := range variants {
				t.Add(v.name, report.F2(gains[i]))
			}
			t.AddNote("Gains above 1.5 in every row mean the reproduction's headline does not hinge on any single calibration constant.")
			return []*report.Table{t}, nil
		},
	})
}
