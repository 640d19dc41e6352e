package daemon

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/fault"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

// renderSlices renders one actuation deterministically.
func renderSlices(node int, slices map[int]sim.Time) string {
	ids := make([]int, 0, len(slices))
	for id := range slices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b bytes.Buffer
	fmt.Fprintf(&b, "n%d:", node)
	for _, id := range ids {
		fmt.Fprintf(&b, " vm%d=%v", id, slices[id])
	}
	b.WriteByte('\n')
	return b.String()
}

// recordingFleetActuator logs every ApplyNode (fleet path).
type recordingFleetActuator struct {
	inner FleetActuator
	mu    sync.Mutex
	log   bytes.Buffer
}

func (r *recordingFleetActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	if err := r.inner.ApplyNode(node, slices); err != nil {
		return err
	}
	r.mu.Lock()
	r.log.WriteString(renderSlices(node, slices))
	r.mu.Unlock()
	return nil
}

// checkGolden compares got against the golden file at path, rewriting
// it first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// singleNodeBackend builds the equivalence-test cluster.
func singleNodeBackend(t *testing.T) *SimBackend {
	t.Helper()
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      1,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: 60,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSingleNodeByteIdentical pins the single-machine daemon: a
// 1-node, 1-shard fleet makes byte-identical actuations to the legacy
// single-node Daemon it replaced, whose log on this cluster is the
// golden file.
func TestFleetSingleNodeByteIdentical(t *testing.T) {
	b := singleNodeBackend(t)
	fa := &recordingFleetActuator{inner: b}
	f := NewFleet(core.DefaultConfig(), b, fa, FleetOptions{Node: DefaultOptions(), Shards: 1})
	defer f.Close()
	if err := f.Run(); !IsDone(err) {
		t.Fatalf("fleet: %v", err)
	}
	checkGolden(t, filepath.Join("testdata", "single_node_actuations.golden"), fa.log.Bytes())
	if got := f.Decisions(); got != 60 {
		t.Errorf("decisions = %d, want one per period (60)", got)
	}
}

// scriptSource replays a fixed schedule of fleet periods (tests).
type scriptSource struct {
	periods [][]NodeBatch
	i       int
}

func (s *scriptSource) SampleFleet() ([]NodeBatch, error) {
	if s.i >= len(s.periods) {
		return nil, io.EOF
	}
	s.i++
	return s.periods[s.i-1], nil
}

// parallelBatch is a one-VM parallel batch for node.
func parallelBatch(node int, lat sim.Time) NodeBatch {
	return NodeBatch{Node: node, Samples: []VMSample{{ID: 100 + node, AvgSpinLatency: lat, Parallel: true}}}
}

// TestFleetStepStartsNoGoroutines pins the fan-out/join shape: a Step
// joins every worker goroutine it starts, and the fleet holds none
// between Steps.
func TestFleetStepStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var periods [][]NodeBatch
	for p := 0; p < 5; p++ {
		var batches []NodeBatch
		for n := 0; n < 16; n++ {
			batches = append(batches, parallelBatch(n, ms(float64(p+1))))
		}
		periods = append(periods, batches)
	}
	f := NewFleet(core.DefaultConfig(), &scriptSource{periods: periods}, &mapActuator{}, FleetOptions{Shards: 4})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.Decisions(); got != 16*5 {
		t.Fatalf("decisions = %d, want %d", got, 16*5)
	}
	// A joined goroutine may still be on its way out; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Run, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingActuator rejects every actuation.
type failingActuator struct{}

func (failingActuator) ApplyNode(int, map[int]sim.Time) error { return errActuator }

// TestFleetGiveUpReturnsLowestNode pins the terminal error when several
// nodes give up in the same period: it is always the lowest node's,
// whichever worker goroutine finishes first. Of a 2-row table at 2
// workers, nodes 0 and 1 are on different workers, so the two give up
// on different goroutines.
func TestFleetGiveUpReturnsLowestNode(t *testing.T) {
	o := DefaultOptions()
	o.GiveUpAfter, o.Sleep = 1, noSleep
	for run := 0; run < 50; run++ {
		src := &scriptSource{periods: [][]NodeBatch{{parallelBatch(1, ms(1)), parallelBatch(0, ms(1))}}}
		f := NewFleet(core.DefaultConfig(), src, failingActuator{}, FleetOptions{Node: o, Shards: 2})
		err := f.Step()
		if err == nil || !strings.Contains(err.Error(), "fleet node 0:") || !errors.Is(err, errActuator) {
			t.Fatalf("run %d: Step = %v, want node 0's give-up", run, err)
		}
		if again := f.Step(); again != err {
			t.Fatalf("run %d: terminal error not sticky: %v then %v", run, err, again)
		}
		if got := f.Stats().DroppedPeriods; got != 2 {
			t.Fatalf("run %d: dropped periods = %d, want both nodes' period", run, got)
		}
	}
}

// TestFleetDecisionTelemetry pins the decision-telemetry family with no
// clock attached: one "decision" span per node-period on a 30 ms grid,
// outcome counters, fault counters, and per-VM slice series.
func TestFleetDecisionTelemetry(t *testing.T) {
	src := &scriptSource{periods: [][]NodeBatch{
		{parallelBatch(0, ms(1)), parallelBatch(1, ms(2))},
		{parallelBatch(0, ms(1)), parallelBatch(1, ms(2))},
		{parallelBatch(1, ms(2))},
	}}
	plane := telemetry.New(telemetry.Options{})
	f := NewFleet(core.DefaultConfig(), src, &mapActuator{}, FleetOptions{Shards: 2})
	f.SetTelemetry(plane.Global(), nil)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	snap := plane.Snapshot()
	var spans []string
	for _, sp := range snap.Spans {
		spans = append(spans, fmt.Sprintf("%s n%d %v-%v", sp.Name, sp.Node, sp.Start, sp.End))
	}
	want := []string{
		"decision n0 0ns-30.000ms", "decision n1 0ns-30.000ms",
		"decision n0 30.000ms-60.000ms", "decision n1 30.000ms-60.000ms",
		"decision n1 60.000ms-90.000ms",
	}
	if strings.Join(spans, "\n") != strings.Join(want, "\n") {
		t.Errorf("spans:\n%s\nwant:\n%s", strings.Join(spans, "\n"), strings.Join(want, "\n"))
	}
	counts := map[string]uint64{}
	for _, c := range snap.Counters {
		counts[c.Name] = c.Value
	}
	if counts["daemon_decision_apply"] != 5 {
		t.Errorf("daemon_decision_apply = %d, want 5", counts["daemon_decision_apply"])
	}
	if _, ok := counts["daemon_dropped_periods"]; !ok {
		t.Errorf("fault counters missing: %v", counts)
	}
	points := map[string][]sim.Time{}
	for _, sr := range snap.Series {
		if sr.Name == "daemon_slice_ns" {
			if sr.Node != -1 {
				t.Errorf("slice series %s carries node %d, want only the VM label", sr.VM, sr.Node)
			}
			for _, p := range sr.Points {
				points[sr.VM] = append(points[sr.VM], p.T)
			}
		}
	}
	if got := fmt.Sprint(points); got != "map[vm100:[30.000ms 60.000ms] vm101:[30.000ms 60.000ms 90.000ms]]" {
		t.Errorf("slice series points = %s", got)
	}
}

// faultedFleetBackend builds the kill-restore cluster: contended nodes
// plus a daemon-crash blackout window mid-run.
func faultedFleetBackend(t *testing.T, maxPeriods int) *SimBackend {
	t.Helper()
	b, err := NewSimBackend(SimBackendConfig{
		Nodes:      2,
		VCPUsPerVM: 4,
		Clusters:   2,
		Kernel:     "lu",
		Class:      workload.ClassA,
		MaxPeriods: maxPeriods,
		Seed:       3,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.DaemonCrash, StartSec: 0.6, DurSec: 0.45},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFleetPeriods steps f n times (stopping early on clean end).
func runFleetPeriods(t *testing.T, f *Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Step(); err != nil {
			if IsDone(err) {
				return
			}
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestFleetKillRestoreMidBlackout is the headline resilience pin: the
// fleet daemon is killed in the middle of a daemon-crash blackout, a
// new fleet is restored from the snapshot, and the run continues. The
// restored run's post-convergence control state must be byte-identical
// to an uninterrupted run's — and the controller must re-engage (ATC
// slices below the default) after the blackout lifts.
func TestFleetKillRestoreMidBlackout(t *testing.T) {
	const total, killAt = 60, 25 // blackout spans periods 21..35 (0.6s..1.05s)
	opts := FleetOptions{Shards: 2}

	// Uninterrupted reference run.
	refB := faultedFleetBackend(t, total)
	ref := NewFleet(core.DefaultConfig(), refB, refB, opts)
	runFleetPeriods(t, ref, total)
	refSnap, err := ref.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Killed-and-restored run on an identical cluster.
	b := faultedFleetBackend(t, total)
	f1 := NewFleet(core.DefaultConfig(), b, b, opts)
	runFleetPeriods(t, f1, killAt)
	if !b.scen.FaultPlan().DaemonDown(b.World.Now()) {
		t.Fatalf("kill point %d is not inside the blackout window (now %v)", killAt, b.World.Now())
	}
	snap := f1.Snapshot()
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f1.Close() // the crash

	restored, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(core.DefaultConfig(), b, b, opts)
	defer f2.Close()
	if err := f2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if got := f2.RestoredNodes(); got != 2 {
		t.Fatalf("restored %d nodes, want 2", got)
	}
	runFleetPeriods(t, f2, total-killAt)

	gotSnap, err := f2.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, refSnap) {
		t.Errorf("post-convergence control state diverges from uninterrupted run:\nrestored:\n%s\nreference:\n%s",
			viewOf(t, gotSnap), viewOf(t, refSnap))
	}
	if rep := b.FaultReport(); rep.DaemonDarkPeriods == 0 {
		t.Error("no dark periods tallied — blackout window never engaged")
	}
	// Re-engagement: after the blackout the controller is adapting again,
	// so the contended parallel VMs sit below the default slice.
	def := core.DefaultConfig().Default
	engaged := false
	for _, node := range f2.Nodes() {
		for _, sl := range f2.LastSlices(node) {
			if sl < def {
				engaged = true
			}
		}
	}
	if !engaged {
		t.Error("no parallel VM below the default slice after restore — ATC never re-engaged")
	}
	if errs := b.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit: %v", errs[0])
	}
}

// TestFleetShardCountInvariant pins that the worker count (Shards) is
// pure plumbing: the same cluster driven at 1, 2 and 4 workers lands
// the same control state, byte for byte.
func TestFleetShardCountInvariant(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		b := faultedFleetBackend(t, 40)
		f := NewFleet(core.DefaultConfig(), b, b, FleetOptions{Shards: shards})
		runFleetPeriods(t, f, 40)
		enc, err := f.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if want == nil {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("shards=%d control state diverges from shards=1", shards)
		}
	}
}

// TestFleetNodeTableOrderFree pins the sorted node table against batch
// order: a source that names nodes out of ID order, adds
// nodes between known ones, skips some and repeats one lands the same
// state as the same batches stably sorted by node ID.
func TestFleetNodeTableOrderFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var shuffled, sorted [][]NodeBatch
	for p := 0; p < 12; p++ {
		var period []NodeBatch
		for node := 0; node < 40; node++ {
			if r.Intn(4) == 0 || node > 10+3*p {
				continue // missing this period, or not born yet
			}
			lat := sim.Time(r.Intn(3000)) * sim.Microsecond
			period = append(period, NodeBatch{Node: node, Samples: []VMSample{
				{ID: 2 * node, AvgSpinLatency: lat, Parallel: true},
				{ID: 2*node + 1, AvgSpinLatency: lat / 2, Parallel: node%3 == 0},
			}})
		}
		if p%3 == 1 && len(period) > 0 {
			period = append(period, period[0]) // a node named twice
		}
		r.Shuffle(len(period), func(i, j int) { period[i], period[j] = period[j], period[i] })
		shuffled = append(shuffled, period)
		inOrder := slices.Clone(period)
		slices.SortStableFunc(inOrder, func(a, b NodeBatch) int { return cmp.Compare(a.Node, b.Node) })
		sorted = append(sorted, inOrder)
	}
	run := func(periods [][]NodeBatch, shards int) (*Fleet, []byte) {
		f := NewFleet(core.DefaultConfig(), &scriptSource{periods: periods}, &mapActuator{}, FleetOptions{Shards: shards})
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		enc, err := f.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return f, enc
	}
	ref, want := run(sorted, 1)
	for _, shards := range []int{1, 3} {
		f, got := run(shuffled, shards)
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: out-of-order batches land different state", shards)
		}
		if !slices.Equal(f.Nodes(), ref.Nodes()) {
			t.Errorf("shards=%d: nodes %v, want %v", shards, f.Nodes(), ref.Nodes())
		}
		for _, node := range []int{-1, 0, 5, 39, 40} {
			if got, want := f.LastSlices(node), ref.LastSlices(node); !maps.Equal(got, want) || (got == nil) != (want == nil) {
				t.Errorf("shards=%d: LastSlices(%d) = %v, want %v", shards, node, got, want)
			}
		}
	}
}

// TestFleetMaxNodesRejectsStrays pins the MaxNodes bound: batches for
// out-of-range nodes are counted and ignored, never grown into state.
func TestFleetMaxNodesRejectsStrays(t *testing.T) {
	var batches []NodeBatch
	for _, node := range []int{0, 1, 2, -1, 7} {
		batches = append(batches, NodeBatch{Node: node, Samples: []VMSample{{ID: 1, AvgSpinLatency: ms(1), Parallel: true}}})
	}
	f := NewFleet(core.DefaultConfig(), &scriptSource{periods: [][]NodeBatch{batches}}, &mapActuator{}, FleetOptions{MaxNodes: 2})
	defer f.Close()
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if got := f.Rejected(); got != 3 {
		t.Errorf("rejected = %d, want 3", got)
	}
	if got := f.Nodes(); len(got) != 2 {
		t.Errorf("fleet grew state for %v, want exactly nodes [0 1]", got)
	}
}
