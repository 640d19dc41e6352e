package integration_test

import (
	"fmt"
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// TestApproachKernelMatrix smoke-runs every scheduling approach
// (including the HY extension) against every kernel (including ep/ft) at
// a tiny scale, auditing each world at the end — the broadest
// cross-product the suite exercises.
func TestApproachKernelMatrix(t *testing.T) {
	kernels := append(workload.NPBKernels(), workload.ExtraKernels()...)
	for _, a := range cluster.ExtendedApproaches() {
		for _, k := range kernels {
			a, k := a, k
			t.Run(fmt.Sprintf("%s/%s", a, k), func(t *testing.T) {
				t.Parallel()
				cfg := cluster.DefaultConfig(2, a)
				cfg.Node.PCPUs = 2
				cfg.Node.Dom0VCPUs = 1
				cfg.Seed = 5
				s := cluster.MustNew(cfg)
				prof := workload.NPB(k, workload.ClassA)
				prof.Iterations = 4
				run := s.RunParallel(prof, s.VirtualCluster("vc", 2, 2, nil), 2, false)
				if !s.Go(240 * sim.Second) {
					t.Fatalf("%s/%s: horizon exceeded (rounds=%d)", a, k, run.Rounds())
				}
				if run.MeanTime() <= 0 {
					t.Fatal("no timing recorded")
				}
				if errs := s.World.Audit(); len(errs) > 0 {
					t.Fatalf("audit: %v", errs[0])
				}
			})
		}
	}
}

// TestATCVariantsMatrix runs the ATC option combinations end to end.
func TestATCVariantsMatrix(t *testing.T) {
	variants := map[string]func(*cluster.Config){
		"stock": func(c *cluster.Config) {},
		"autodetect": func(c *cluster.Config) {
			o := atc.DefaultOptions()
			o.AutoDetect = true
			c.Sched.Options = o
		},
		"admin6ms": func(c *cluster.Config) { c.NonParallelAdminSlice = 6 * sim.Millisecond },
		"noboost":  func(c *cluster.Config) { c.Sched.DisableBoost = true },
		"nosteal":  func(c *cluster.Config) { c.Sched.DisableSteal = true },
	}
	for name, mut := range variants {
		name, mut := name, mut
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := cluster.DefaultConfig(2, cluster.ATC)
			cfg.Node.PCPUs = 2
			cfg.Node.Dom0VCPUs = 1
			cfg.Seed = 5
			mut(&cfg)
			s := cluster.MustNew(cfg)
			prof := workload.NPB("cg", workload.ClassA)
			prof.Iterations = 4
			run := s.RunParallel(prof, s.VirtualCluster("vc", 2, 2, nil), 2, false)
			if !s.Go(240 * sim.Second) {
				t.Fatalf("variant %s: horizon exceeded", name)
			}
			if run.MeanTime() <= 0 {
				t.Fatal("no timing recorded")
			}
			if errs := s.World.Audit(); len(errs) > 0 {
				t.Fatalf("audit: %v", errs[0])
			}
		})
	}
}
