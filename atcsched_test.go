package atcsched

import (
	"fmt"
	"testing"

	"atcsched/internal/sim"
)

func TestControllerFacade(t *testing.T) {
	ctl := NewController(DefaultControlConfig())
	for i, want := range []sim.Time{24 * sim.Millisecond, 18 * sim.Millisecond} {
		lat := sim.Time(i+1) * sim.Millisecond
		out := ctl.Decide([]Sample{{ID: 1, AvgSpinLatency: lat, Parallel: true}}, false)
		if out[1] != want {
			t.Errorf("period %d: slice = %v, want %v (one α step per rising period)", i, out[1], want)
		}
		ctl.Commit()
	}
}

func TestScenarioFacadeEndToEnd(t *testing.T) {
	cfg := DefaultScenarioConfig(2, ATC)
	cfg.Seed = 5
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := NPBProfile("is", "A")
	prof.Iterations = 4
	var runs []interface{ MeanTime() float64 }
	for vc := 0; vc < 2; vc++ {
		vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), 2, 4, nil)
		runs = append(runs, s.RunParallel(prof, vms, 2, false))
	}
	if !s.Go(600 * sim.Second) {
		t.Fatal("horizon exceeded")
	}
	for i, r := range runs {
		if r.MeanTime() <= 0 {
			t.Errorf("run %d mean time = 0", i)
		}
	}
}

func TestNPBProfileFacade(t *testing.T) {
	p := NPBProfile("lu", "B")
	if p.Name != "lu.B" {
		t.Errorf("name = %q", p.Name)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad class accepted")
		}
	}()
	NPBProfile("lu", "D")
}

func TestExperimentsFacade(t *testing.T) {
	if len(Experiments()) != 20 {
		t.Errorf("experiments = %d, want 20", len(Experiments()))
	}
	tables, err := RunExperiment("tab1", "small", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if _, err := RunExperiment("tab1", "huge", 1); err == nil {
		t.Error("bad scale accepted")
	}
	if _, err := RunExperiment("nope", "small", 1); err == nil {
		t.Error("bad id accepted")
	}
}

func TestSchedulerKindsFacade(t *testing.T) {
	kinds := SchedulerKinds()
	if len(kinds) != 10 {
		t.Fatalf("kinds = %v, want 10 registered policies", kinds)
	}
	have := map[string]bool{}
	for _, k := range kinds {
		have[k] = true
	}
	for _, want := range []string{"CR", "CS", "BS", "DSS", "VS", "ATC", "HY", "EXT", "DFRS", "ATCDFRS"} {
		if !have[want] {
			t.Errorf("kinds missing %s: %v", want, kinds)
		}
	}
}
