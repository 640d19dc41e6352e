package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atcsched/internal/sim"
)

// -update rewrites the golden files from the current exporter output.
var update = flag.Bool("update", false, "rewrite exporter golden files")

// goldenSnapshot builds a small fixed snapshot that exercises every
// exporter feature: per-node and global labels, multi-point series,
// spans on several tracks (including the cluster pseudo-node), a
// histogram with below-first and +Inf observations, drop counters, and
// the goldenEvents scheduling records.
func goldenSnapshot() Snapshot {
	p := New(Options{HistBounds: []sim.Time{sim.Millisecond, 10 * sim.Millisecond}})
	n0, n1, g := p.Node(0), p.Node(1), p.Global()
	n0.Add("sched_dispatches", Label{Node: 0}, 12)
	n1.Add("sched_dispatches", Label{Node: 1}, 9)
	g.Add("daemon_decision_apply", GlobalLabel(), 4)
	g.SetGauge("vm_run_time_ns", Label{Node: -1, VM: "vm0"}, 1.5e9)
	n0.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm0"}, 30*sim.Millisecond, 120000)
	n0.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm0"}, 60*sim.Millisecond, 95000)
	n1.Point("vm_slice_ns", Label{Node: 1, VM: "vm1"}, 30*sim.Millisecond, 3e7)
	n0.Observe("spin_latency", Label{Node: 0, VM: "vm0"}, 500*sim.Microsecond)
	n0.Observe("spin_latency", Label{Node: 0, VM: "vm0"}, 4*sim.Millisecond)
	n0.Observe("spin_latency", Label{Node: 0, VM: "vm0"}, sim.Second)
	n0.AddSpan(Span{Name: "spin", Track: "vm0/1", Node: 0,
		Start: 10 * sim.Millisecond, End: 12 * sim.Millisecond, Value: 2 * sim.Millisecond})
	n1.AddSpan(Span{Name: "round", Track: "vm1", Node: 1,
		Start: 5 * sim.Millisecond, End: 45 * sim.Millisecond, Value: 1})
	g.AddSpan(Span{Name: "decision", Track: "daemon", Node: -1,
		Start: 30 * sim.Millisecond, End: 30 * sim.Millisecond})
	g.AddSpan(Span{Name: "fault:pcpu-slow", Track: "faults", Node: -1,
		Start: 20 * sim.Millisecond, End: 80 * sim.Millisecond})
	for _, e := range goldenEvents() {
		p.Node(e.Node).Record(e)
	}
	return p.Snapshot()
}

// goldenEvents is a fixed scheduling-event stream: two dispatch
// episodes on one PCPU (one preempted, one left open), a block on a
// second node, a slice change, and a policy swap.
func goldenEvents() []SchedEvent {
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }
	return []SchedEvent{
		{At: ms(1), Kind: SchedDispatch, Node: 0, PCPU: 0, VM: "vm0", VCPU: 0},
		{At: ms(4), Kind: SchedPreempt, Node: 0, PCPU: 0, VM: "vm0", VCPU: 0},
		{At: ms(4), Kind: SchedDispatch, Node: 0, PCPU: 0, VM: "vm1", VCPU: 2},
		{At: ms(6), Kind: SchedSlice, Node: 0, PCPU: -1, VM: "vm0", VCPU: -1, Arg: ms(30)},
		{At: ms(7), Kind: SchedDispatch, Node: 1, PCPU: 1, VM: "vm2", VCPU: 0},
		{At: ms(9), Kind: SchedBlock, Node: 1, PCPU: 1, VM: "vm2", VCPU: 0},
		{At: ms(10), Kind: SchedSwap, Node: 1, PCPU: -1, VCPU: -1},
	}
}

// checkGolden compares got against testdata/name, rewriting under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update to accept):\n--- got ---\n%s", name, got)
	}
}

func TestTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	snap := goldenSnapshot()
	if !reflect.DeepEqual(snap.Records, goldenEvents()) {
		t.Fatalf("snapshot records are not the published stream in order:\n%v", snap.Records)
	}
	if err := WriteTimeline(&buf, snap); err != nil {
		t.Fatal(err)
	}
	// The artifact must parse as trace-event JSON whatever the bytes.
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("timeline is not valid trace-event JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
	checkGolden(t, "timeline.golden.json", buf.Bytes())
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Every line must parse standalone and carry a type tag; the first
	// must be the meta header with the current schema version.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if m["type"] == "" {
			t.Fatalf("line %d has no type tag: %s", i, ln)
		}
		if i == 0 && (m["type"] != "meta" || m["version"] != float64(JSONLVersion)) {
			t.Fatalf("first line is not a v%d meta header: %s", JSONLVersion, ln)
		}
	}
	checkGolden(t, "series.golden.jsonl", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WritePrometheus(bw, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden.txt", buf.Bytes())
}
