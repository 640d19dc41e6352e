package vmm

import (
	"testing"

	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

func TestTracerCapturesLifecycle(t *testing.T) {
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	p := telemetry.New(telemetry.Options{})
	w.SetRecording(p)
	if w.Recording() != p {
		t.Fatal("recording plane not attached")
	}
	vm := w.Node(0).NewVM("tr", ClassParallel, 1, 0, 1)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{
		Compute(12 * sim.Millisecond), // spans two 5ms slices → preempts
		Sleep(2 * sim.Millisecond),    // block + wake
		Compute(sim.Millisecond),
	}}, nil)
	w.Start()
	w.RunUntil(sim.Second)

	recs := p.Snapshot().Records
	var dispatches, preempts, blocks, wakes int
	for _, r := range recs {
		switch r.Kind {
		case telemetry.SchedDispatch:
			dispatches++
		case telemetry.SchedPreempt:
			preempts++
		case telemetry.SchedBlock:
			blocks++
		case telemetry.SchedWake:
			wakes++
		}
		if r.Node != 0 {
			t.Errorf("record on node %d", r.Node)
		}
	}
	if dispatches < 3 {
		t.Errorf("dispatches = %d, want >= 3", dispatches)
	}
	if preempts < 2 {
		t.Errorf("preempts = %d, want >= 2 (12ms over 5ms slices)", preempts)
	}
	if blocks < 2 || wakes < 1 {
		t.Errorf("blocks = %d wakes = %d", blocks, wakes)
	}
	// Records are time-ordered.
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("records out of order")
		}
	}
	// Detaching stops recording.
	w.SetRecording(nil)
	if w.Recording() != nil || w.Node(0).rec != nil {
		t.Fatal("recording still attached after SetRecording(nil)")
	}
}

func TestNoTracerIsCheap(t *testing.T) {
	// A world that records nothing leaves every node's record target nil
	// (the one branch each scheduling event pays) and must not panic.
	w := testWorld(t, 1, 1, 5*sim.Millisecond)
	vm := w.Node(0).NewVM("x", ClassParallel, 1, 0, 1)
	vm.VCPU(0).SetProcess(&seqProc{actions: []Action{Compute(sim.Millisecond)}}, nil)
	w.Start()
	w.RunUntil(100 * sim.Millisecond)
	if w.Recording() != nil || w.Node(0).rec != nil {
		t.Fatal("unexpected recording")
	}
}

// periodSpy wraps rrSched and records when OnPeriod fires.
type periodSpy struct {
	rrSched
	eng   *sim.Engine
	fires *[]sim.Time
}

func (s *periodSpy) OnPeriod(n *Node) {
	*s.fires = append(*s.fires, s.eng.Now())
}

func TestNodeTimerPhasesStaggered(t *testing.T) {
	// Two nodes' period timers must not fire at identical instants
	// (phase-locked timers let gang dispatch accidentally co-schedule
	// virtual clusters across nodes). Observe the actual OnPeriod times.
	cfg := DefaultNodeConfig()
	cfg.PCPUs = 1
	cfg.Dom0VCPUs = 1
	fires := make([][]sim.Time, 2)
	w, err := NewWorld(2, cfg, defaultNet(), func(n *Node) Scheduler {
		return &periodSpy{rrSched: rrSched{slice: 5 * sim.Millisecond}, eng: n.Engine(), fires: &fires[n.ID()]}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	w.RunUntil(200 * sim.Millisecond)
	if len(fires[0]) < 3 || len(fires[1]) < 3 {
		t.Fatalf("periods fired %d/%d times", len(fires[0]), len(fires[1]))
	}
	// Skip the synchronized start-time call (index 0), then require no
	// shared instants.
	seen := map[sim.Time]bool{}
	for _, at := range fires[0][1:] {
		seen[at] = true
	}
	for _, at := range fires[1][1:] {
		if seen[at] {
			t.Fatalf("nodes share a period instant %v — timers phase-locked", at)
		}
	}
}
