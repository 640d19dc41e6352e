package daemon

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// -update rewrites the snapshot golden files from the current codec.
var update = flag.Bool("update", false, "rewrite snapshot golden files")

// goldenFleet builds a small fleet with fixed, fully-populated control
// state: two nodes, VMs with history, a blacked-out VM, admin slices,
// sequence numbers and fault counters.
func goldenFleet(t *testing.T) *Fleet {
	t.Helper()
	node0 := func(seq uint64) NodeBatch {
		return NodeBatch{Node: 0, Samples: []VMSample{
			{ID: 1, AvgSpinLatency: ms(2), Parallel: true, Seq: seq},
			{ID: 2, AvgSpinLatency: ms(5), Parallel: true, Seq: seq},
			{ID: 3, AdminSlice: ms(6), Seq: seq}}}
	}
	node1 := func(seq uint64) NodeBatch {
		return NodeBatch{Node: 1, Samples: []VMSample{{ID: 4, AvgSpinLatency: ms(1), Parallel: true, Seq: seq}}}
	}
	src := &scriptSource{}
	for seq := uint64(1); seq <= 4; seq++ {
		src.periods = append(src.periods, []NodeBatch{node0(seq), node1(seq)})
	}
	// One stale repeat for node 1, then a period where node 0's admin VM
	// drops out.
	last := node0(5)
	last.Samples = last.Samples[:2]
	src.periods = append(src.periods, []NodeBatch{node1(4)}, []NodeBatch{last})
	f := NewFleet(core.DefaultConfig(), src, &mapActuator{}, FleetOptions{Shards: 2})
	t.Cleanup(f.Close)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSnapshotDecodesLegacyOverflow pins compatibility with version-1
// snapshots written in JSON, including those that still carry the
// retired "overflow" count: they decode and restore, the count is
// dropped, and the restored fleet checkpoints as the golden does.
func TestSnapshotDecodesLegacyOverflow(t *testing.T) {
	golden := readGolden(t, viewGolden)
	legacy := bytes.Replace(golden, []byte(`"decisions": 10,`), []byte(`"decisions": 10,
  "overflow": 3,`), 1)
	if bytes.Equal(legacy, golden) {
		t.Fatal(`test assumes the golden renders "decisions": 10,`)
	}
	snap, err := DecodeSnapshot(legacy)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{})
	if err := f.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored := f.Snapshot()
	if got := view(t, restored); !bytes.Equal(got, golden) {
		t.Errorf("restored legacy snapshot renders as:\n%s\nwant the golden:\n%s", got, golden)
	}
	enc, err := restored.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, ckptGolden); !bytes.Equal(enc, want) {
		t.Errorf("restored legacy snapshot checkpoints as %x, want the golden %x", enc, want)
	}
}

// TestSnapshotGolden pins the checkpoint byte-for-byte, and the JSON
// view of the golden checkpoint (regenerate both with -update): the
// format is a compatibility surface — a daemon must be restorable from
// a checkpoint written by an older build of the same version.
func TestSnapshotGolden(t *testing.T) {
	snap := goldenFleet(t).Snapshot()
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptGolden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(viewGolden, view(t, snap), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t, ckptGolden)
	if !bytes.Equal(enc, want) {
		t.Errorf("checkpoint encoding changed; if intentional bump SnapshotVersion and rerun with -update\ngot:\n%s\nwant:\n%s",
			viewOf(t, enc), viewOf(t, want))
	}
	decoded, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := view(t, decoded), readGolden(t, viewGolden); !bytes.Equal(got, want) {
		t.Errorf("the golden checkpoint's JSON view changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotRoundTrip pins encode→decode→restore→encode as the
// identity on control state.
func TestSnapshotRoundTrip(t *testing.T) {
	enc, err := goldenFleet(t).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{Shards: 3})
	defer f2.Close()
	if err := f2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	enc2, err := f2.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("restore is not the identity:\nfirst:\n%s\nsecond:\n%s", viewOf(t, enc), viewOf(t, enc2))
	}
}

// TestSnapshotVersionMismatch pins outright rejection of any other
// schema version, in a checkpoint or in JSON — no guessing.
func TestSnapshotVersionMismatch(t *testing.T) {
	snap := goldenFleet(t).Snapshot()
	snap.Version = 2
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(enc); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("DecodeSnapshot(version-2 checkpoint) = %v, want version-mismatch error", err)
	}
	golden := readGolden(t, viewGolden)
	bad := bytes.Replace(golden, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if bytes.Equal(bad, golden) {
		t.Fatal("test assumes version field renders as \"version\": 1")
	}
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("DecodeSnapshot(version-2 JSON) = %v, want version-mismatch error", err)
	}
	if _, err := DecodeSnapshot([]byte("{not json")); err == nil {
		t.Error("DecodeSnapshot accepted malformed JSON")
	}
	s := &FleetSnapshot{Version: 99, Config: core.DefaultConfig()}
	f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{})
	defer f.Close()
	if err := f.Restore(s); err == nil {
		t.Error("Restore accepted a version-99 snapshot")
	}
}

// TestSnapshotRestoreUnknownNode pins restore-with-unknown-node
// handling: entries outside the fleet's MaxNodes are skipped and
// counted, the rest restore fine — a shrunk fleet still comes back up.
func TestSnapshotRestoreUnknownNode(t *testing.T) {
	snap := goldenFleet(t).Snapshot() // nodes 0 and 1
	snap.Nodes = append(snap.Nodes, NodeSnapshot{Node: 99, Periods: 3})
	f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{MaxNodes: 1})
	defer f.Close()
	if err := f.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := f.RestoredNodes(); got != 1 {
		t.Errorf("restored = %d, want 1 (node 0 only)", got)
	}
	if got := f.SkippedRestoreNodes(); got != 2 {
		t.Errorf("skipped = %d, want 2 (node 1 beyond MaxNodes, node 99 unknown)", got)
	}
	if got := f.Nodes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("fleet nodes = %v, want [0]", got)
	}
}

// TestSnapshotConfigMismatch pins that a snapshot taken under a
// different controller config is refused (the history windows are
// config-shaped).
func TestSnapshotConfigMismatch(t *testing.T) {
	snap := goldenFleet(t).Snapshot()
	cfg := core.DefaultConfig()
	cfg.Default = 24 * sim.Millisecond
	f := NewFleet(cfg, nil, &mapActuator{}, FleetOptions{})
	defer f.Close()
	if err := f.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot with a different controller config")
	}
}

// TestSnapshotRestoreCraftedVMIDs pins that a snapshot lists every VM a
// node holds any state for: restoring a crafted snapshot whose VMs each
// appear in only one of the loop's tables (last slice, sequence number,
// stale count, classification, controller history) and re-snapshotting
// gives it back unchanged.
func TestSnapshotRestoreCraftedVMIDs(t *testing.T) {
	hist := func(v sim.Time) []sim.Time { return []sim.Time{v, v, v} }
	want := &FleetSnapshot{Version: SnapshotVersion, Config: core.DefaultConfig(), Periods: 4, Decisions: 4,
		Nodes: []NodeSnapshot{{Node: 0, Periods: 4, VMs: []VMSnapshot{
			{ID: 1, HasLast: true, Last: ms(6)},
			{ID: 2, Seq: 7},
			{ID: 3, StaleRuns: 2},
			{ID: 4, Known: true, Admin: ms(3)},
			{ID: 5, Observed: 2, Lat: hist(ms(1)), Slice: hist(ms(24))},
			{ID: 9, Known: true, Parallel: true, HasLast: true, Last: ms(18), Seq: 4, StaleRuns: 1,
				Observed: 4, Lat: hist(ms(2)), Slice: hist(ms(18))},
		}}, {Node: 3, Periods: 1, Stats: Stats{DroppedPeriods: 3}, ConsecDrops: 3}}}
	f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{Shards: 2})
	defer f.Close()
	if err := f.Restore(want); err != nil {
		t.Fatal(err)
	}
	got, err := f.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := want.Encode(); !bytes.Equal(got, enc) {
		t.Errorf("restored snapshot re-encodes as:\n%s\nwant:\n%s", viewOf(t, got), viewOf(t, enc))
	}
}

// TestSnapshotRestoreRejectsBadHistory pins that Restore refuses a
// history window that Observe could never have produced, and installs
// nothing for the node it came in.
func TestSnapshotRestoreRejectsBadHistory(t *testing.T) {
	def := core.DefaultConfig().Default
	good := []sim.Time{def, def, def}
	cases := []struct {
		name     string
		lat      []sim.Time
		slice    []sim.Time
		observed int
	}{
		{"short lat", []sim.Time{0, 0}, good, 1},
		{"long slice", []sim.Time{0, 0, 0}, append(good, def), 1},
		{"missing lat", nil, good, 1},
		{"negative latency", []sim.Time{0, -1, 0}, good, 1},
		{"zero slice", []sim.Time{0, 0, 0}, []sim.Time{def, 0, def}, 1},
		{"negative observed", []sim.Time{0, 0, 0}, good, -1},
	}
	for _, tc := range cases {
		snap := &FleetSnapshot{Version: SnapshotVersion, Config: core.DefaultConfig(), Nodes: []NodeSnapshot{{
			Node: 0, VMs: []VMSnapshot{{ID: 1, Known: true, Observed: tc.observed, Lat: tc.lat, Slice: tc.slice}},
		}}}
		f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{})
		if err := f.Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted bad history", tc.name)
		}
		if got := f.Nodes(); len(got) != 0 {
			t.Errorf("%s: failed restore left nodes %v behind", tc.name, got)
		}
		f.Close()
	}
}
