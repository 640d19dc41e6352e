package telemetry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atcsched/internal/rng"
	"atcsched/internal/sim"
)

func TestRecordRingBound(t *testing.T) {
	p := New(Options{RecordCap: 4})
	for i := 0; i < 10; i++ {
		p.Node(0).Record(SchedEvent{At: sim.Time(i), Kind: SchedDispatch, VM: "x"})
	}
	snap := p.Snapshot()
	if len(snap.Records) != 4 {
		t.Fatalf("kept %d records, want 4", len(snap.Records))
	}
	if snap.DroppedRecords != 6 {
		t.Errorf("DroppedRecords = %d, want 6", snap.DroppedRecords)
	}
	if recs := snap.Records; recs[0].At != 6 || recs[3].At != 9 {
		t.Errorf("kept %v..%v, want 6..9", recs[0].At, recs[3].At)
	}
}

// TestRecordRingPerNode checks the retention rule across a plane: every
// node registry keeps its own newest RecordCap records, and the
// snapshot's eviction count is the sum of what each cap evicted.
func TestRecordRingPerNode(t *testing.T) {
	const recordCap = 5
	p := New(Options{RecordCap: recordCap})
	published := []int{3, 12, 5, 9} // per node: under, over, at and over the cap
	for node, n := range published {
		for i := 0; i < n; i++ {
			p.Node(node).Record(SchedEvent{At: sim.Time(i), Kind: SchedWake, Node: node, VCPU: i})
		}
	}
	snap := p.Snapshot()
	var kept, dropped int
	perNode := map[int][]int{}
	for _, e := range snap.Records {
		perNode[e.Node] = append(perNode[e.Node], e.VCPU)
	}
	for node, n := range published {
		k := min(n, recordCap)
		kept += k
		dropped += n - k
		want := make([]int, 0, k)
		for i := n - k; i < n; i++ {
			want = append(want, i)
		}
		if got := perNode[node]; !slices.Equal(got, want) {
			t.Errorf("node %d kept records %v, want the newest %v", node, got, want)
		}
	}
	if len(snap.Records) != kept || snap.DroppedRecords != uint64(dropped) {
		t.Fatalf("snapshot holds %d records and %d dropped, want %d and %d",
			len(snap.Records), snap.DroppedRecords, kept, dropped)
	}
	if m := p.Metrics(); m.Records != nil || m.DroppedRecords != uint64(dropped) {
		t.Errorf("metrics view carries %d records and %d dropped, want none and %d", len(m.Records), m.DroppedRecords, dropped)
	}
}

// TestRecordMergeOrder checks the snapshot's record order: records
// sorted by time, two nodes recording at one instant node-ascending,
// and one node's same-instant records in publish order — the stable
// sort of the per-node streams, over random streams with overflowing
// rings too.
func TestRecordMergeOrder(t *testing.T) {
	p := New(Options{})
	p.Node(1).Record(SchedEvent{At: 5, Kind: SchedDispatch, Node: 1, PCPU: 0})
	p.Node(0).Record(SchedEvent{At: 5, Kind: SchedPreempt, Node: 0, PCPU: 1})
	p.Node(0).Record(SchedEvent{At: 5, Kind: SchedDispatch, Node: 0, PCPU: 1})
	p.Node(1).Record(SchedEvent{At: 5, Kind: SchedSlice, Node: 1, PCPU: -1})
	p.Node(0).Record(SchedEvent{At: 7, Kind: SchedBlock, Node: 0, PCPU: 1})
	p.Node(1).Record(SchedEvent{At: 6, Kind: SchedWake, Node: 1, PCPU: -1})
	var got []string
	for _, e := range p.Snapshot().Records {
		got = append(got, e.Kind.String()+"@"+e.At.String())
	}
	want := []string{"preempt@5ns", "dispatch@5ns", "dispatch@5ns", "slice@5ns", "wake@6ns", "block@7ns"}
	if !slices.Equal(got, want) {
		t.Fatalf("merged records %v, want %v", got, want)
	}

	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		nodes, recordCap := 1+int(seed%5), 0
		if seed%3 == 0 {
			recordCap = 20
		}
		p := New(Options{RecordCap: recordCap})
		logs := make([][]SchedEvent, nodes)
		clock := make([]sim.Time, nodes)
		for i := 0; i < 300; i++ {
			n := r.Intn(nodes)
			clock[n] += sim.Time(r.Intn(2)) // many same-instant records
			e := SchedEvent{At: clock[n], Kind: SchedKind(r.Intn(6)), Node: n, VCPU: i}
			p.Node(n).Record(e)
			logs[n] = append(logs[n], e)
		}
		var ref []SchedEvent
		for _, log := range logs {
			if recordCap > 0 && len(log) > recordCap {
				log = log[len(log)-recordCap:]
			}
			ref = append(ref, log...)
		}
		slices.SortStableFunc(ref, func(a, b SchedEvent) int {
			if a.At != b.At {
				return cmp.Compare(a.At, b.At)
			}
			return cmp.Compare(a.Node, b.Node)
		})
		if got := p.Snapshot().Records; !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: merged records differ from the stable sort of the per-node rings", seed)
		}
	}
}

func TestRecordOutputs(t *testing.T) {
	recs := []SchedEvent{
		{At: sim.Millisecond, Kind: SchedDispatch, Node: 0, PCPU: 2, VM: "vm0", VCPU: 1},
		{At: 2 * sim.Millisecond, Kind: SchedSlice, Node: 0, PCPU: -1, VM: "vm0", VCPU: -1, Arg: 6 * sim.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dispatch") || !strings.Contains(out, "slice=6.000ms") {
		t.Errorf("text output:\n%s", out)
	}
	buf.Reset()
	if err := WriteRecordsCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "at_ns,kind,node,pcpu,vm,vcpu,arg_ns" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "slice") || !strings.Contains(lines[2], "6000000") {
		t.Errorf("csv slice row = %q", lines[2])
	}
}

// TestWriteTrace checks the -trace spec writer: the summary goes to
// stdout, text and CSV go to their files byte for byte as the writers
// render them, and a bad spec or an uncreatable file is an error.
func TestWriteTrace(t *testing.T) {
	snap := goldenSnapshot()
	var stdout bytes.Buffer
	if err := WriteTrace(&stdout, "summary", snap); err != nil || stdout.String() != RecordSummary(snap) {
		t.Errorf("summary: %v\n%s", err, stdout.String())
	}
	dir := t.TempDir()
	for format, write := range map[string]func(io.Writer, []SchedEvent) error{
		"text": WriteRecords, "csv": WriteRecordsCSV,
	} {
		path := filepath.Join(dir, format)
		if err := WriteTrace(&stdout, format+":"+path, snap); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := write(&want, snap.Records); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s file differs from the writer's output (%v)", format, err)
		}
	}
	for _, spec := range []string{"", "wat:x", "text", "csv:"} {
		if err := WriteTrace(&stdout, spec, snap); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	missing := filepath.Join(dir, "no-such-dir", "x")
	if err := WriteTrace(&stdout, "csv:"+missing, snap); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("uncreatable file: error %v", err)
	}
}

func TestRecordSummary(t *testing.T) {
	p := New(Options{RecordCap: 2})
	r := p.Node(0)
	r.Record(SchedEvent{Kind: SchedDispatch, VM: "a"})
	r.Record(SchedEvent{Kind: SchedBlock, VM: "a"})
	r.Record(SchedEvent{Kind: SchedWake, VM: "b"})
	s := RecordSummary(p.Snapshot())
	if !strings.Contains(s, "b") || !strings.Contains(s, "(1 older records dropped") {
		t.Errorf("summary:\n%s", s)
	}
}

func TestSchedKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := SchedDispatch; k <= SchedSwap; k++ {
		if name := k.String(); name == "" || seen[name] {
			t.Errorf("kind %d named %q", int(k), name)
		}
		seen[k.String()] = true
	}
	if got := SchedKind(42).String(); got != "SchedKind(42)" {
		t.Errorf("unknown kind named %q", got)
	}
	if b, err := SchedSlice.MarshalText(); err != nil || string(b) != "slice" {
		t.Errorf("MarshalText = %q, %v", b, err)
	}
}

// TestSchedKindTextRoundTrip checks that UnmarshalText inverts
// MarshalText for all six kinds, in a record's JSON too, and refuses
// names it does not know.
func TestSchedKindTextRoundTrip(t *testing.T) {
	for k := SchedDispatch; k <= SchedSwap; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got SchedKind
		if err := got.UnmarshalText(b); err != nil || got != k {
			t.Errorf("%v: UnmarshalText(%q) = %v, %v", k, b, got, err)
		}
		in := SchedEvent{At: 5, Kind: k, Node: 1, PCPU: 2, VM: "vm", VCPU: 3, Arg: 7}
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out SchedEvent
		if err := json.Unmarshal(js, &out); err != nil || out != in {
			t.Errorf("%v: record %s decoded as %+v, %v", k, js, out, err)
		}
	}
	for _, name := range []string{"", "Dispatch", "SchedKind(42)", "steal"} {
		var k SchedKind
		if err := k.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("UnmarshalText(%q) = %v, want an error", name, k)
		}
	}
}
