package daemon

import (
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/fault"
	"atcsched/internal/sched/credit"
	"atcsched/internal/workload"
)

// runClosedLoop executes the daemon against the sim backend for the
// given number of periods and returns per-round progress (completed
// rounds across all clusters) plus the final slice on node 0.
func runClosedLoop(t *testing.T, periods int, control bool) (rounds int, finalSliceMS float64) {
	t.Helper()
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 8,
		Clusters:   4,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: periods,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if control {
		d := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: DefaultOptions()})
		if err := d.Run(); !IsDone(err) {
			t.Fatalf("daemon ended with %v", err)
		}
	} else {
		// No daemon: just advance the same amount of virtual time.
		for {
			if _, err := b.SampleFleet(); err != nil {
				if !IsDone(err) {
					t.Fatal(err)
				}
				break
			}
		}
	}
	for _, r := range b.Runs() {
		rounds += r.Rounds()
	}
	vm0 := b.World.Node(0).VMs()[0]
	sched := b.World.Node(0).Scheduler().(*credit.External)
	return rounds, sched.CurrentSlice(vm0).Millis()
}

func TestClosedLoopDaemonAcceleratesCluster(t *testing.T) {
	// The whole point of the userspace deployment: the SAME daemon code
	// that would drive hypervisor knobs, driving the simulated cluster,
	// must shorten slices and make the parallel applications complete
	// more rounds than an uncontrolled credit scheduler in the same
	// virtual time.
	const periods = 150 // 4.5 virtual seconds
	withDaemon, slice := runClosedLoop(t, periods, true)
	withoutDaemon, defSlice := runClosedLoop(t, periods, false)
	if slice >= 30 {
		t.Errorf("controlled slice = %vms, want shortened", slice)
	}
	if defSlice != 30 {
		t.Errorf("uncontrolled slice = %vms, want default 30ms", defSlice)
	}
	if withDaemon <= withoutDaemon {
		t.Errorf("rounds with daemon %d <= without %d", withDaemon, withoutDaemon)
	}
	t.Logf("closed loop: %d rounds vs %d uncontrolled; final slice %.1fms", withDaemon, withoutDaemon, slice)
}

func TestSimBackendDefaults(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{Class: workload.ClassA})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Runs()) != 4 {
		t.Errorf("clusters = %d", len(b.Runs()))
	}
	batches, err := b.SampleFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Errorf("batches = %d, want one per node", len(batches))
	}
	var s []VMSample
	for _, nb := range batches {
		s = append(s, nb.Samples...)
	}
	if len(s) != 8 { // 4 clusters x 2 nodes
		t.Errorf("samples = %d", len(s))
	}
	if b.Periods() != 1 {
		t.Errorf("periods = %d", b.Periods())
	}
}

func TestIsDone(t *testing.T) {
	if !IsDone(errDone{}) {
		t.Error("errDone not recognized")
	}
	if IsDone(nil) {
		t.Error("nil recognized as done")
	}
}

// TestActuatorFailShardInvariant pins that injected actuation failures
// are drawn per node: a 4-node sim fleet under an actuator-fail window
// ends in the same snapshot and fault report at fleet shard counts 1, 2
// and 4, on every one of 20 runs, however the shard goroutines
// interleave.
func TestActuatorFailShardInvariant(t *testing.T) {
	run := func(shards int) (string, fault.Report) {
		b, err := NewSimBackend(SimBackendConfig{
			Nodes: 4, Hollow: true, MaxPeriods: 6, Seed: 5,
			Faults: &fault.Spec{Windows: []fault.Window{
				{Kind: fault.ActuatorFail, StartSec: 0, DurSec: 10, Severity: 0.5},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.MaxRetries, o.GiveUpAfter, o.Sleep = 1, 100, noSleep
		f := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: o, Shards: shards})
		if err := f.Run(); !IsDone(err) {
			t.Fatalf("shards=%d: fleet ended with %v", shards, err)
		}
		enc, err := f.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return string(enc), b.FaultReport()
	}
	wantSnap, wantRep := run(1)
	if wantRep.ActuationsFailed == 0 {
		t.Fatalf("the window injected nothing: %v", wantRep)
	}
	for i := 0; i < 20; i++ {
		for _, shards := range []int{1, 2, 4} {
			snap, rep := run(shards)
			if rep != wantRep {
				t.Fatalf("run %d, shards=%d: fault report %v, want %v", i, shards, rep, wantRep)
			}
			if snap != wantSnap {
				t.Fatalf("run %d, shards=%d: snapshot differs from shards=1:\n%s\nwant:\n%s", i, shards,
					viewOf(t, []byte(snap)), viewOf(t, []byte(wantSnap)))
			}
		}
	}
}
