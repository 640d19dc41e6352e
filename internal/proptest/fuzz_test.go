package proptest_test

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/proptest"
)

// fuzzApproaches keeps FuzzWorld iterations cheap: the baseline, the
// paper's scheduler, and the hybrid extension cover the three distinct
// scheduler cores.
var fuzzApproaches = []cluster.Approach{cluster.CR, cluster.ATC, cluster.HY}

// FuzzWorld derives tiny generator parameters from fuzz bytes and runs
// the full property battery (audit, liveness, conservation, determinism
// replay, differential agreement) on the resulting world. Run deep with
//
//	go test ./internal/proptest -fuzz=FuzzWorld -fuzztime=30s
func FuzzWorld(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(3), uint8(1), uint8(2), uint8(5))
	f.Add(uint64(7), uint8(0), uint8(1), uint8(7), uint8(1), uint8(255))
	// A generated fault window scoped to a node the rewrite drops.
	f.Add(uint64(178), uint8('$'), uint8(0xCF), uint8(0xAE), uint8('X'), uint8(0x81))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, pcpus, kernel, shape, opts uint8) {
		spec := proptest.Generate(seed, proptest.Bounded())
		// Rewrite the generated spec's shape from the fuzz bytes, clamped
		// to a tiny world so each iteration stays cheap, and keep a single
		// cluster so the fuzzer owns every knob that matters.
		spec.Nodes = 1 + int(nodes)%2
		spec.PCPUsPerNode = 1 + int(pcpus)%3
		kernels := []string{"lu", "is", "sp", "bt", "mg", "cg", "ep", "ft"}
		vc := &spec.VirtualClusters[0]
		vc.Kernel = kernels[int(kernel)%len(kernels)]
		vc.Class = "A"
		vc.VMs = 1 + int(shape)%2
		vc.VCPUs = 1 + int(shape>>2)%3
		vc.Rounds = 1
		vc.Iterations = 1 + int(shape>>4)%3
		spec.VirtualClusters = spec.VirtualClusters[:1]
		spec.Scheduler.FixedSliceMs = []float64{0, 0.3, 5, 30}[int(opts)%4]
		spec.Scheduler.DisableBoost = opts&16 != 0
		spec.Scheduler.DisableSteal = opts&32 != 0
		if len(spec.Jobs) > 1 {
			spec.Jobs = spec.Jobs[:1]
		}
		// The rewritten world may have fewer nodes than the generated
		// jobs, pins, switches and fault scopes name.
		proptest.Rehome(&spec)
		if err := spec.Validate(); err != nil {
			t.Fatalf("fuzz-derived spec invalid: %v", err)
		}
		if err := proptest.CheckSpec(spec, fuzzApproaches); err != nil {
			t.Fatalf("property violated on fuzz-derived spec %+v: %v", spec, err)
		}
	})
}
