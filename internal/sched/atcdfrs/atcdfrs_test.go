package atcdfrs_test

import (
	"encoding/json"
	"testing"

	"atcsched/internal/sched/atcdfrs"
	"atcsched/internal/sched/dfrs"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
	"atcsched/internal/vmmtest"
)

// TestSplitPlanes is the hybrid's core contract: a spinning parallel VM
// walks its slice down through ATC while a non-parallel co-tenant gets
// a DFRS fraction and a fractional quantum — on the same node at the
// same time.
func TestSplitPlanes(t *testing.T) {
	opts := atcdfrs.DefaultOptions()
	w := vmmtest.World(1, 1, atcdfrs.Factory(opts))
	node := w.Node(0)
	par, _ := vmmtest.SpinPair(node, opts.DFRS.Credit.TimeSlice)
	job := node.NewVM("job", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(job.VCPU(0), vmm.Compute(100*sim.Millisecond))
	w.Start()
	w.RunUntil(5 * sim.Second)
	s := node.Scheduler().(*atcdfrs.Scheduler)
	if got := s.CurrentSlice(par); got >= opts.DFRS.Credit.TimeSlice {
		t.Errorf("parallel slice = %v, want ATC-shortened below %v", got, opts.DFRS.Credit.TimeSlice)
	}
	if _, ok := s.Fraction(par); ok {
		t.Error("parallel VM was drawn into the fraction pool")
	}
	f, ok := s.Fraction(job)
	if !ok {
		t.Fatal("non-parallel VM has no fraction")
	}
	if f < opts.DFRS.MinFraction {
		t.Errorf("job fraction %.3f below floor", f)
	}
	if s.Redistributions() == 0 {
		t.Error("no fraction redistributions happened")
	}
}

// TestFractionsShrinkAroundParallelLoad: the distributable capacity for
// non-parallel fractions excludes what parallel tenants actually burn,
// so a busy parallel VM squeezes the fraction pool.
func TestFractionsShrinkAroundParallelLoad(t *testing.T) {
	opts := atcdfrs.DefaultOptions()
	run := func(parallelBusy bool) float64 {
		w := vmmtest.World(1, 2, atcdfrs.Factory(opts))
		node := w.Node(0)
		par := node.NewVM("par", vmm.ClassParallel, 2, 0, 1)
		if parallelBusy {
			for _, v := range par.VCPUs() {
				vmmtest.Loop(v, vmm.Compute(100*sim.Millisecond))
			}
		}
		job := node.NewVM("job", vmm.ClassNonParallel, 1, 0, 1)
		vmmtest.Loop(job.VCPU(0), vmm.Compute(100*sim.Millisecond))
		w.Start()
		w.RunUntil(3 * sim.Second)
		s := node.Scheduler().(*atcdfrs.Scheduler)
		f, ok := s.Fraction(job)
		if !ok {
			t.Fatal("job has no fraction")
		}
		return f
	}
	quiet, busy := run(false), run(true)
	if busy >= quiet {
		t.Errorf("job fraction %.3f under parallel load, want below the quiet %.3f", busy, quiet)
	}
}

// TestRegistryRoundTrip: hybrid options nest the DFRS options and the
// controller config; partial JSON merges over defaults, invalid
// fractions and controller configs are rejected, and the merge is
// byte-stable.
func TestRegistryRoundTrip(t *testing.T) {
	d, ok := registry.Lookup("ATCDFRS")
	if !ok {
		t.Fatal("ATCDFRS not registered")
	}
	merged, err := d.Options(json.RawMessage(`{"dfrs": {"minFraction": 0.04}, "control": {"alpha": "9ms"}}`))
	if err != nil {
		t.Fatal(err)
	}
	o := merged.(*atcdfrs.Options)
	if o.DFRS.MinFraction != 0.04 {
		t.Errorf("user minFraction lost: %+v", o.DFRS)
	}
	if o.Control.Alpha != 9*sim.Millisecond {
		t.Errorf("user alpha lost: %v", o.Control.Alpha)
	}
	if o.DFRS.Smoothing != dfrs.DefaultOptions().Smoothing || !o.DFRS.Credit.Boost {
		t.Errorf("defaults lost: %+v", o.DFRS)
	}
	if err := registry.Validate("ATCDFRS", json.RawMessage(`{"dfrs": {"smoothing": -1}}`)); err == nil {
		t.Error("negative smoothing accepted")
	}
	if err := registry.Validate("ATCDFRS", json.RawMessage(`{"control": {"alpha": "0.01ms"}}`)); err == nil {
		t.Error("alpha below beta accepted")
	}
	b1, _ := json.Marshal(merged)
	again, err := d.Options(json.RawMessage(b1))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Errorf("round trip unstable:\n%s\n%s", b1, b2)
	}
}

// TestBaseOverridesReachCreditCore: the cross-policy fixed-slice /
// boost / steal overrides must land in the hybrid's shared credit core.
func TestBaseOverridesReachCreditCore(t *testing.T) {
	f, err := registry.Resolve("ATCDFRS", nil, registry.Base{FixedSlice: 4 * sim.Millisecond, DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	w := vmmtest.World(1, 1, f)
	s := w.Node(0).Scheduler().(*atcdfrs.Scheduler)
	if got := s.Options().TimeSlice; got != 4*sim.Millisecond {
		t.Errorf("fixed slice not applied: %v", got)
	}
	if s.Options().Steal {
		t.Error("steal not disabled")
	}
}

// TestOnPeriodSteadyStateAllocs pins that once the node's VMs are known
// to both planes, a period — fraction redistribution included — allocates
// nothing.
func TestOnPeriodSteadyStateAllocs(t *testing.T) {
	opts := atcdfrs.DefaultOptions()
	opts.DFRS.RedistributePeriods = 1 // redistribute every period
	w := vmmtest.World(1, 2, atcdfrs.Factory(opts))
	node := w.Node(0)
	vmmtest.SpinPair(node, opts.DFRS.Credit.TimeSlice)
	job := node.NewVM("job", vmm.ClassNonParallel, 1, 0, 1)
	vmmtest.Loop(job.VCPU(0), vmm.Compute(100*sim.Millisecond))
	w.Start()
	w.RunUntil(sim.Second)
	s := node.Scheduler()
	if got := testing.AllocsPerRun(50, func() { s.OnPeriod(node) }); got != 0 {
		t.Errorf("%v allocations per ATC×DFRS period, want 0", got)
	}
}
