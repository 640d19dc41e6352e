package daemon

import (
	"errors"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/fault"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// scriptedActuator fails according to a per-call script (call n consults
// script[n-1]; calls past the script succeed) and otherwise records like
// mapActuator.
type scriptedActuator struct {
	mapActuator
	script []error
	calls  int
}

func (a *scriptedActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	a.calls++
	if a.calls <= len(a.script) && a.script[a.calls-1] != nil {
		return a.script[a.calls-1]
	}
	return a.mapActuator.ApplyNode(node, slices)
}

var errActuator = errors.New("hypervisor knob unavailable")

// noSleep drops backoff waits so failure tests run instantly.
func noSleep(time.Duration) {}

// TestFailedApplyCommitsNothing pins the state-drift fix: a period whose
// actuation never lands must leave the daemon's committed state — the
// last-applied map and the period counter — exactly as it was, so the
// next period's Observe uses the slice actually in force rather than one
// that never took effect.
func TestFailedApplyCommitsNothing(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 7; i++ { // rising latency: the controller keeps shortening
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(float64(i + 1)), Parallel: true}})
	}
	src := &SliceSource{Periods: periods}
	act := &scriptedActuator{script: []error{errActuator}}
	d := nodeFleet(src, act, func(o *Options) {
		o.MaxRetries, o.RetryBackoff, o.GiveUpAfter, o.Sleep = 0, 0, 10, noSleep
	})

	if err := d.Step(); err != nil {
		t.Fatalf("dropped period must not be terminal: %v", err)
	}
	if last := d.LastSlices(0); len(last) != 0 {
		t.Errorf("last-applied map committed after failed Apply: %v", last)
	}
	if d.Decisions() != 0 {
		t.Errorf("periods = %d after failed Apply, want 0", d.Decisions())
	}
	if d.Stats().DroppedPeriods != 1 {
		t.Errorf("dropped = %d, want 1", d.Stats().DroppedPeriods)
	}

	// Subsequent periods actuate. The committed record must track what
	// the actuator really applied at every step — the drift the fix
	// removes is exactly a divergence between these two.
	for i := 0; i < 6; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := d.LastSlices(0)[1], act.Last[1]; got != want {
			t.Fatalf("period %d: committed %v differs from actuated %v", i+2, got, want)
		}
	}
	if d.Decisions() != 6 {
		t.Errorf("periods = %d, want 6 (the dropped one must not count)", d.Decisions())
	}
	def := core.DefaultConfig().Default
	if got := d.LastSlices(0)[1]; got >= def {
		t.Errorf("sustained contention left slice at %v, want shortened below %v", got, def)
	}
}

// TestRetryBackoffDoubles pins the retry policy: each re-attempt waits
// twice the previous backoff, and a period that eventually lands commits
// normally.
func TestRetryBackoffDoubles(t *testing.T) {
	src := &SliceSource{Periods: [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}},
	}}
	act := &scriptedActuator{script: []error{errActuator, errActuator}}
	var waits []time.Duration
	d := nodeFleet(src, act, func(o *Options) {
		o.MaxRetries, o.RetryBackoff = 3, 10*time.Millisecond
		o.Sleep = func(dt time.Duration) { waits = append(waits, dt) }
	})
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(waits) != len(want) || waits[0] != want[0] || waits[1] != want[1] {
		t.Errorf("backoffs = %v, want %v", waits, want)
	}
	if d.Stats().Retries != 2 {
		t.Errorf("retries = %d, want 2", d.Stats().Retries)
	}
	if d.Decisions() != 1 || d.Stats().DroppedPeriods != 0 {
		t.Errorf("periods = %d dropped = %d, want 1/0", d.Decisions(), d.Stats().DroppedPeriods)
	}
}

// TestRunSurvivesTransientActuatorFailure pins the loop-level contract:
// retried and even fully dropped periods do not end Run; only the
// give-up threshold is terminal.
func TestRunSurvivesTransientActuatorFailure(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 6; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(2), Parallel: true}})
	}
	// Period 2's first attempt fails (retry lands it); period 4 fails both
	// attempts and drops.
	act := &scriptedActuator{script: []error{
		nil,              // period 1
		errActuator, nil, // period 2: fail, retry ok
		nil,                      // period 3
		errActuator, errActuator, // period 4: dropped
		nil, // period 5
	}}
	d := nodeFleet(&SliceSource{Periods: periods}, act, func(o *Options) {
		o.MaxRetries, o.RetryBackoff, o.GiveUpAfter, o.Sleep = 1, time.Millisecond, 3, noSleep
	})
	if err := d.Run(); err != nil {
		t.Fatalf("Run must absorb transient failures: %v", err)
	}
	if d.Decisions() != 5 {
		t.Errorf("periods = %d, want 5 (one of six dropped)", d.Decisions())
	}
	st := d.Stats()
	if st.Retries != 2 || st.DroppedPeriods != 1 {
		t.Errorf("retries = %d dropped = %d, want 2/1", st.Retries, st.DroppedPeriods)
	}
}

// TestGiveUpAfterConsecutiveDrops pins the terminal path: persistent
// actuation failure eventually surfaces as an error instead of spinning
// forever, and a success in between resets the counter.
func TestGiveUpAfterConsecutiveDrops(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 10; i++ {
		periods = append(periods, []VMSample{{ID: 1, Parallel: true}})
	}
	// One drop, one success (resets the run), then drops until give-up.
	act := &scriptedActuator{script: []error{
		errActuator, nil, errActuator, errActuator, errActuator,
	}}
	d := nodeFleet(&SliceSource{Periods: periods}, act, func(o *Options) {
		o.MaxRetries, o.RetryBackoff, o.GiveUpAfter, o.Sleep = 0, 0, 2, noSleep
	})
	err := d.Run()
	if err == nil {
		t.Fatal("Run returned nil despite give-up threshold")
	}
	if !errors.Is(err, errActuator) {
		t.Errorf("terminal error %v does not wrap the actuator error", err)
	}
	if d.Stats().DroppedPeriods != 3 {
		t.Errorf("dropped = %d, want 3 (1 reset + 2 consecutive)", d.Stats().DroppedPeriods)
	}
	if d.Decisions() != 1 {
		t.Errorf("periods = %d, want 1", d.Decisions())
	}
}

// TestStaleSamplesSkippedThenDegraded pins the blackout policy: a
// repeated sequence number is not fed to the controller; the last slice
// holds for StaleAfter-1 periods and then walks back toward the default.
func TestStaleSamplesSkippedThenDegraded(t *testing.T) {
	var periods [][]VMSample
	seq := uint64(0)
	for i := 0; i < 6; i++ { // rising contention: slice walks down
		seq++
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: ms(float64(i + 1)), Parallel: true, Seq: seq}})
	}
	for i := 0; i < 8; i++ { // monitor wedged: same seq repeated
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: ms(6), Parallel: true, Seq: seq}})
	}
	act := &scriptedActuator{}
	d := nodeFleet(&SliceSource{Periods: periods}, act, func(o *Options) { o.StaleAfter = 2 })

	// Drive the contention phase and note the shortened slice.
	for i := 0; i < 6; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	short := act.Last[1]
	def := core.DefaultConfig().Default
	if short >= def {
		t.Fatalf("contention phase did not shorten the slice (%v)", short)
	}

	// First stale period: hold.
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if act.Last[1] != short {
		t.Errorf("first stale period moved the slice: %v -> %v", short, act.Last[1])
	}
	// Further stale periods: degrade toward the default, never past it.
	prev := act.Last[1]
	for i := 0; i < 7; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if act.Last[1] < prev || act.Last[1] > def {
			t.Fatalf("degradation not monotone toward default: %v -> %v", prev, act.Last[1])
		}
		prev = act.Last[1]
	}
	if act.Last[1] != def {
		t.Errorf("slice = %v after long blackout, want default %v", act.Last[1], def)
	}
	st := d.Stats()
	if st.StaleSamples != 8 {
		t.Errorf("stale samples = %d, want 8", st.StaleSamples)
	}
	if st.Degraded == 0 {
		t.Error("no degradation recorded")
	}
}

// TestDropoutDegrades pins the other blackout face: a known VM missing
// from the sample set entirely is still actuated, held first and then
// degraded.
func TestDropoutDegrades(t *testing.T) {
	periods := [][]VMSample{
		{{ID: 1, AvgSpinLatency: ms(5), Parallel: true, Seq: 1},
			{ID: 2, Parallel: false, AdminSlice: ms(6), Seq: 1}},
	}
	for i := 0; i < 6; i++ { // both VMs vanish from the monitor
		periods = append(periods, []VMSample{})
	}
	act := &scriptedActuator{}
	d := nodeFleet(&SliceSource{Periods: periods}, act, func(o *Options) { o.StaleAfter = 2 })
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig().Default
	if act.Last[1] != def {
		t.Errorf("parallel dropout slice = %v, want degraded to default %v", act.Last[1], def)
	}
	if act.Last[2] != ms(6) {
		t.Errorf("non-parallel dropout slice = %v, want admin 6ms", act.Last[2])
	}
	if d.Decisions() != 7 {
		t.Errorf("periods = %d, want 7", d.Decisions())
	}
}

// TestClosedLoopRidesOutInjectedFaults drives the full daemon against
// the sim backend with a fault plan injecting actuation failures and
// monitor dropouts: the hardened loop must retry through the failures,
// skip the blacked-out samples, and still finish its period budget on
// every node.
func TestClosedLoopRidesOutInjectedFaults(t *testing.T) {
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 100,
		Seed:       3,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.ActuatorFail, StartSec: 0.5, DurSec: 1, Severity: 0.4},
			{Kind: fault.MonitorDrop, StartSec: 0.5, DurSec: 1, Severity: 0.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.MaxRetries, o.RetryBackoff, o.GiveUpAfter, o.Sleep = 3, time.Millisecond, 50, noSleep
	d := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Node: o})
	if err := d.Run(); !IsDone(err) {
		t.Fatalf("daemon ended with %v, want clean period-budget end", err)
	}
	rep := b.FaultReport()
	if rep.ActuationsFailed == 0 {
		t.Error("no actuation failures injected — plan not live on Apply")
	}
	if rep.SamplesDropped == 0 {
		t.Error("no monitor dropouts injected — plan not live on Sample")
	}
	if d.Stats().Retries == 0 {
		t.Error("injected actuation failures never triggered a retry")
	}
	nodes := d.Table()
	if len(nodes) != 2 {
		t.Fatalf("fleet tracks %d nodes, want 2", len(nodes))
	}
	for _, n := range nodes {
		if n.Periods == 0 || n.Periods+n.DroppedPeriods != 100 {
			t.Errorf("node %d: periods=%d dropped=%d, want their sum to be the 100-period budget",
				n.Node, n.Periods, n.DroppedPeriods)
		}
	}
	if errs := b.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit under faults: %v", errs[0])
	}
}

// TestSeqZeroKeepsLegacyBehaviour pins backward compatibility: sources
// that do not track sequence numbers are never treated as stale.
func TestSeqZeroKeepsLegacyBehaviour(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 5; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}})
	}
	act := &scriptedActuator{}
	d := nodeFleet(&SliceSource{Periods: periods}, act, nil)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.StaleSamples != 0 || st.Degraded != 0 {
		t.Errorf("legacy source tripped fault handling: %+v", st)
	}
	if d.Decisions() != 5 {
		t.Errorf("periods = %d, want 5", d.Decisions())
	}
}
