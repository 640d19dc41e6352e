package proptest_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/proptest"
	"atcsched/internal/scenario"
)

// Sweep gears. Reproduce one failing scenario with
//
//	go test ./internal/proptest -run TestScenarioSweep -proptest.seed=<N>
//
// and explore bigger worlds with -proptest.long (slower; not part of
// tier-1).
var (
	sweepN    = flag.Int("proptest.n", 100, "number of generated scenarios in the sweep")
	sweepSeed = flag.Uint64("proptest.seed", 0, "run exactly this generator seed instead of the sweep")
	longMode  = flag.Bool("proptest.long", false, "use the deep generator limits (bigger worlds)")
	specFile  = flag.String("proptest.spec", "", "run the battery on a Spec JSON file (e.g. a shrinker report)")
)

// sweepBase offsets the sweep's seed range so seed 0 stays free as the
// -proptest.seed sentinel.
const sweepBase = 1

func limits() proptest.Limits {
	if *longMode {
		return proptest.Deep()
	}
	return proptest.Bounded()
}

// runBattery checks one spec and, on failure, shrinks it and fails the
// test with a one-command repro line.
func runBattery(t *testing.T, spec proptest.Spec) {
	t.Helper()
	approaches := cluster.ExtendedApproaches()
	err := proptest.CheckSpec(spec, approaches)
	if err == nil {
		return
	}
	min := proptest.Shrink(spec, func(s proptest.Spec) error {
		return proptest.CheckSpec(s, approaches)
	})
	mj, jerr := json.MarshalIndent(min, "", "  ")
	if jerr != nil {
		mj = []byte(jerr.Error())
	}
	t.Fatalf("property violated: %v\nreproduce:\n  go test ./internal/proptest -run TestScenarioSweep -proptest.seed=%d\nminimized failing spec (save to a file and run with -proptest.spec):\n%s",
		err, spec.Seed, mj)
}

// TestScenarioSweep is the bounded deterministic gear: ~100 generated
// scenarios, each run under all seven approaches plus a determinism
// replay.
func TestScenarioSweep(t *testing.T) {
	var seeds []uint64
	if *sweepSeed != 0 {
		seeds = []uint64{*sweepSeed}
	} else {
		for i := 0; i < *sweepN; i++ {
			seeds = append(seeds, sweepBase+uint64(i))
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runBattery(t, proptest.Generate(seed, limits()))
		})
	}
}

// TestSpecFile replays the battery on a Spec JSON file — the workflow
// for re-running a shrinker report.
func TestSpecFile(t *testing.T) {
	if *specFile == "" {
		t.Skip("no -proptest.spec file given")
	}
	data, err := os.ReadFile(*specFile)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := decodeSpec(data)
	if err != nil {
		t.Fatalf("parsing %s: %v", *specFile, err)
	}
	runBattery(t, spec)
}

// decodeSpec strictly decodes a Spec report: a field the Spec does not
// have is an error, not silently dropped.
func decodeSpec(data []byte) (proptest.Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec proptest.Spec
	err := dec.Decode(&spec)
	return spec, err
}

// TestSpecJSONRoundTrip pins the shrinker-report workflow: every
// generated Spec marshals and strictly decodes back to an equal Spec.
func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, lim := range []proptest.Limits{proptest.Bounded(), proptest.Deep()} {
			spec := proptest.Generate(seed, lim)
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("seed %d: marshal: %v", seed, err)
			}
			back, err := decodeSpec(data)
			if err != nil {
				t.Fatalf("seed %d: strict decode of %s: %v", seed, data, err)
			}
			if !reflect.DeepEqual(back, spec) {
				t.Fatalf("seed %d: round trip changed the spec:\n%+v\n%+v", seed, spec, back)
			}
		}
	}
}

// TestGenerateDeterministic pins that the generator itself is a pure
// function of the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := proptest.Generate(seed, proptest.Bounded())
		b := proptest.Generate(seed, proptest.Bounded())
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: generator not deterministic:\n%s\n%s", seed, aj, bj)
		}
	}
}

// TestGeneratedSpecsValidate pins that both gears only emit Specs inside
// the Validate hard bounds (the contract FuzzWorld relies on).
func TestGeneratedSpecsValidate(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, lim := range []proptest.Limits{proptest.Bounded(), proptest.Deep()} {
			if err := proptest.Generate(seed, lim).Validate(); err != nil {
				t.Fatalf("seed %d: generated invalid spec: %v", seed, err)
			}
		}
	}
}

// TestBatteryDetectsLivenessFailure is the negative control: a horizon
// far too small for the workload must trip the liveness property, so a
// green sweep means the checks actually ran.
func TestBatteryDetectsLivenessFailure(t *testing.T) {
	spec := proptest.Generate(1, proptest.Bounded())
	spec.HorizonSec = 0.000001
	err := proptest.CheckSpec(spec, []cluster.Approach{cluster.CR})
	if err == nil {
		t.Fatal("battery passed a spec that cannot complete")
	}
}

// TestShrinkReducesFailingSpec pins the shrinker contract: the minimized
// spec still fails the same predicate and is no larger than the input.
func TestShrinkReducesFailingSpec(t *testing.T) {
	spec := proptest.Generate(3, proptest.Bounded())
	spec.HorizonSec = 0.000001
	pred := func(s proptest.Spec) error {
		return proptest.CheckSpec(s, []cluster.Approach{cluster.CR})
	}
	if pred(spec) == nil {
		t.Fatal("control spec unexpectedly passes")
	}
	min := proptest.Shrink(spec, pred)
	if pred(min) == nil {
		t.Fatal("shrunk spec no longer fails the predicate")
	}
	if size(min) > size(spec) {
		t.Fatalf("shrink grew the spec: %d -> %d", size(spec), size(min))
	}
}

// size is a rough Spec magnitude for the shrinker test.
func size(s proptest.Spec) int {
	n := s.Nodes + s.PCPUsPerNode + len(s.Jobs)
	for _, c := range s.VirtualClusters {
		n += c.VMs + c.VCPUs + c.Rounds + c.Iterations
	}
	return n
}

// TestValidateRejectsOutOfBounds pins the fuzz safety net.
func TestValidateRejectsOutOfBounds(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*proptest.Spec)
	}{
		{"zero nodes", func(s *proptest.Spec) { s.Nodes = 0 }},
		{"huge pcpus", func(s *proptest.Spec) { s.PCPUsPerNode = 1 << 20 }},
		{"no clusters", func(s *proptest.Spec) { s.VirtualClusters = nil }},
		{"bad kernel", func(s *proptest.Spec) { s.VirtualClusters[0].Kernel = "nope" }},
		{"bad class", func(s *proptest.Spec) { s.VirtualClusters[0].Class = "Z" }},
		{"huge vcpus", func(s *proptest.Spec) { s.VirtualClusters[0].VCPUs = 1000 }},
		{"zero rounds", func(s *proptest.Spec) { s.VirtualClusters[0].Rounds = 0 }},
		{"huge iterations", func(s *proptest.Spec) { s.VirtualClusters[0].Iterations = 1 << 30 }},
		{"forever cluster", func(s *proptest.Spec) { s.VirtualClusters[0].Forever = true }},
		{"bad job type", func(s *proptest.Spec) { s.Jobs = []scenario.JobSpec{{Type: "warp"}} }},
		{"job node out of range", func(s *proptest.Spec) { s.Jobs = []scenario.JobSpec{{Type: "disk", Node: 99}} }},
		{"zero horizon", func(s *proptest.Spec) { s.HorizonSec = 0 }},
		{"huge horizon", func(s *proptest.Spec) { s.HorizonSec = 1e18 }},
		{"negative slice", func(s *proptest.Spec) { s.Scheduler.FixedSliceMs = -1 }},
		{"too many node kinds", func(s *proptest.Spec) {
			s.NodePolicies = []scenario.NodePolicySpec{{Nodes: []int{s.Nodes}, Kind: "ATC"}}
		}},
		{"unknown node kind", func(s *proptest.Spec) {
			s.NodePolicies = []scenario.NodePolicySpec{{Nodes: []int{0}, Kind: "WARP"}}
		}},
		{"unknown swap kind", func(s *proptest.Spec) { s.Switches = []scenario.SwitchSpec{{AtSec: 1, Kind: "WARP"}} }},
		{"swap time without kind", func(s *proptest.Spec) { s.Switches = []scenario.SwitchSpec{{AtSec: 1}} }},
		{"swap time zero", func(s *proptest.Spec) { s.Switches = []scenario.SwitchSpec{{Kind: "ATC"}} }},
		{"swap past horizon", func(s *proptest.Spec) {
			s.Switches = []scenario.SwitchSpec{{AtSec: s.HorizonSec + 1, Kind: "ATC"}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := proptest.Generate(1, proptest.Bounded())
			tc.mut(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", spec)
			}
		})
	}
}
