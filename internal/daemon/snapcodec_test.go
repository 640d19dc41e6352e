package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// The two snapshot goldens: the checkpoint itself, and its JSON view.
var (
	ckptGolden = filepath.Join("testdata", "fleet_snapshot.golden.ckpt")
	viewGolden = filepath.Join("testdata", "fleet_snapshot.golden.json")
)

func readGolden(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run TestSnapshotGolden with -update to create)", err)
	}
	return b
}

// view renders s in its JSON view: json.MarshalIndent with a two-space
// indent and a trailing newline, the form earlier builds wrote.
func view(t testing.TB, s *FleetSnapshot) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// viewOf renders a checkpoint's JSON view, for failure messages.
func viewOf(t testing.TB, enc []byte) string {
	t.Helper()
	s, err := DecodeSnapshot(enc)
	if err != nil {
		return fmt.Sprintf("<%d bytes that do not decode: %v>", len(enc), err)
	}
	return string(view(t, s))
}

// genValue fills v from r by reflection, so a field added to any of
// the snapshot structs is generated — and must then round-trip through
// the codec — without touching this test. It favours the codec's edge
// cases: nil and empty slices, zero and negative durations, extreme
// integers.
func genValue(t testing.TB, r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			genValue(t, r, v.Field(i))
		}
	case reflect.Slice:
		switch n := r.Intn(6) - 1; n {
		case -1:
			v.SetZero()
		default:
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				genValue(t, r, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		picks := []int64{0, 0, 1, -1, 999, 1000, 1500, 300_000, 30_000_000, 1_500_000_000,
			3_723_000_000_001, math.MaxInt64, math.MinInt64, r.Int63n(1 << 40), -r.Int63()}
		v.SetInt(picks[r.Intn(len(picks))])
	case reflect.Uint64:
		picks := []uint64{0, 0, 1, 42, math.MaxUint64, r.Uint64()}
		v.SetUint(picks[r.Intn(len(picks))])
	default:
		t.Fatalf("snapshot generator: no rule for %s fields; extend genValue and the codec", v.Type())
	}
}

// genSnapshot draws one snapshot, usually of the current version.
func genSnapshot(t testing.TB, r *rand.Rand) *FleetSnapshot {
	s := new(FleetSnapshot)
	genValue(t, r, reflect.ValueOf(s).Elem())
	if r.Intn(5) != 0 {
		s.Version = SnapshotVersion
	}
	return s
}

// TestSnapshotCodecOracle round-trips generated snapshots: a snapshot
// of the current version decodes back deep-equal, nil and empty lists
// kept apart; any other version is refused; and the JSON view, read
// back through encoding/json, renders the same view again.
func TestSnapshotCodecOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		s := genSnapshot(t, r)
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(enc)
		if s.Version != SnapshotVersion {
			if err == nil || !strings.Contains(err.Error(), "snapshot version") {
				t.Fatalf("snapshot %d: version %d decoded with error %v, want a version mismatch", i, s.Version, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("snapshot %d does not round-trip:\n got %#v\nwant %#v", i, got, s)
		}
		v := view(t, s)
		fromJSON, err := DecodeSnapshot(v)
		if err != nil {
			t.Fatalf("snapshot %d: the JSON view does not decode: %v\n%s", i, err, v)
		}
		if again := view(t, fromJSON); !bytes.Equal(again, v) {
			t.Fatalf("snapshot %d: the JSON view does not round-trip\ngot:\n%s\nwant:\n%s", i, again, v)
		}
	}
}

// jsonSeeds are JSON-form inputs for the fuzzer: the view golden in
// several spellings, hand-written and legacy documents, and malformed
// ones.
func jsonSeeds(t testing.TB) [][]byte {
	golden := readGolden(t, viewGolden)
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden); err != nil {
		t.Fatal(err)
	}
	// Re-marshalling a generic decode sorts every object's keys, which
	// reorders them relative to the schema.
	var generic any
	dec := json.NewDecoder(bytes.NewReader(golden))
	dec.UseNumber()
	if err := dec.Decode(&generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		golden,
		compact.Bytes(),
		reordered,
		bytes.Replace(golden, []byte(`"decisions": 10,`), []byte(`"decisions": 10, "overflow": 3,`), 1),
		bytes.ReplaceAll(golden, []byte(`"24ms"`), []byte(`24000000`)),
		bytes.Replace(golden, []byte(`"version": 1`), []byte(`"Version": 1`), 1),
		bytes.Replace(golden, []byte(`"version": 1`), []byte(`"version": 1, "VERSION": 1`), 1),
		[]byte(`{"version":1}`),
		[]byte(`{"Version":1,"NODES":[],"ſtats":{}}`),
		[]byte(`{"\u0076ersion":1,"n\u006Fdes":[{"VMS":[{"ID":7,"\u212Anown":true,"lat":["\u0033ms"]}]}]}`),
		[]byte(`{"version":1,"config":null,"periods":null,"nodes":null}`),
		[]byte(`{"version":1,"nodes":[null,{"stats":null,"vms":[null,{"lat":null,"slice":[null,"1ms",-0]}]}]}`),
		[]byte(`{"version":2,"config":[],"periods":"x","nodes":{"vms":1}}`),
		[]byte(`{"version":1,"nodes":[{"vms":[{"last":"3ms","lat":["1µs"]}]}],"x":"😀\ud800"}`),
		[]byte(`{"x":"` + "\xff\xfe" + `","y":[[[{"z":[1e9,-0.5E-3,true,false,null]}]]],"version":1}`),
		[]byte(`{"version":1} {}`),
		// Whitespace runs, and keys out of schema order.
		[]byte("{\"version\":1,       \"nodes\":[{\"vms\":[        {\"id\":1}]}]         }"),
		[]byte("{\t\"version\":1,\r        \t\"periods\":3,\n                \"nodes\":[\r\n\t         ]}"),
		[]byte("{\"nodes\":[{\"vms\":[{\"slice\":[\"1ms\"],\"id\":2,\"lat\":[\"0s\"]}],\"node\":4}],\"periods\":2,\"version\":1}"),
		[]byte("{\"config\":{\"window\":3,\"default\":\"30ms\"},\"decisions\":1,\"version\":1,\"config\":null}"),
		[]byte(`{"version":1,"periods":18446744073709551616}`),
		[]byte(`{"version":1,"nodes":[{"node":-1,"periods":-0}]}`),
		[]byte(` null `),
		[]byte(`[]`),
		[]byte(``),
	}
	return seeds
}

// FuzzDecodeSnapshot checks that no input panics DecodeSnapshot, that
// an accepted checkpoint re-encodes to the same bytes, and that an
// accepted JSON snapshot survives Encode and DecodeSnapshot unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range jsonSeeds(f) {
		f.Add(s)
	}
	f.Add(readGolden(f, ckptGolden))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		s := genSnapshot(f, r)
		s.Version = SnapshotVersion
		enc, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(data, []byte(snapMagic)) {
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted checkpoint re-encodes differently:\n got %x\nwant %x", enc, data)
			}
			return
		}
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("JSON snapshot %q re-encodes to a checkpoint that does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("JSON snapshot %q does not survive a checkpoint:\n got %#v\nwant %#v", data, back, s)
		}
	})
}

// TestDecodeSnapshotCorruption truncates the checkpoint golden at every
// byte offset and flips each of its bits in turn: every such file must
// be refused, which is what lets a restart tell a torn or damaged
// checkpoint from a good one.
func TestDecodeSnapshotCorruption(t *testing.T) {
	golden := readGolden(t, ckptGolden)
	if _, err := DecodeSnapshot(golden); err != nil {
		t.Fatal(err)
	}
	for n := range golden {
		if _, err := DecodeSnapshot(golden[:n]); err == nil {
			t.Errorf("checkpoint truncated to %d of %d bytes accepted", n, len(golden))
		}
	}
	buf := bytes.Clone(golden)
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			buf[i] ^= 1 << bit
			if _, err := DecodeSnapshot(buf); err == nil {
				t.Errorf("checkpoint with bit %d of byte %d flipped accepted", bit, i)
			}
			buf[i] ^= 1 << bit
		}
	}
}

// seal wraps body in a well-formed envelope, so the body's own checks
// are reached.
func seal(body []byte) []byte {
	b := append([]byte(snapMagic), snapFormat)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// TestDecodeSnapshotMalformed pins the checks behind the checksum,
// which damage from a crash or a bad disk almost never reaches: each
// case is a body sealed with a correct length and CRC.
func TestDecodeSnapshotMalformed(t *testing.T) {
	// Version 1 (zigzag 2), a zero config and cursors, then one node
	// holding one VM with every field zero and no history.
	base := []byte{2, 0, 0, 0, 0, 0, 0, 0, 2, // fleet; node count at 8
		0, 0, 0, 0, 0, 0, 0, 2, // node; VM count at 16
		0, 0, 0, 0, 0, 0, 0, 0, 0} // VM; flags at 18
	want := &FleetSnapshot{Version: SnapshotVersion, Nodes: []NodeSnapshot{{VMs: []VMSnapshot{{}}}}}
	if got, err := DecodeSnapshot(seal(base)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("base body decodes as %+v, %v; want %+v", got, err, want)
	}
	with := func(i int, b ...byte) []byte {
		return append(append(append([]byte{}, base[:i]...), b...), base[i+1:]...)
	}
	sealed := seal(base)
	badFormat := bytes.Clone(sealed)
	badFormat[len(snapMagic)] = snapFormat + 1
	badLength := bytes.Clone(sealed)
	badLength[len(snapMagic)+1]++
	cases := []struct {
		name, contains string
		data           []byte
	}{
		{"short header", "header", sealed[:headerLen-1]},
		{"unknown format", "format", badFormat},
		{"length mismatch", "header says", badLength},
		{"trailing byte", "trailing", seal(append(bytes.Clone(base), 0))},
		{"non-minimal varint", "non-minimal", seal(with(0, 0x82, 0x00))},
		{"overflowing varint", "overflowing", seal(with(6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02))},
		{"eleven-byte varint", "overlong", seal(with(6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))},
		{"truncated varint", "truncated", seal(append(bytes.Clone(base[:7]), 0x80))},
		{"unknown flag bits", "flag", seal(with(18, 8))},
		{"node count beyond the bytes left", "list of", seal(with(8, 0xff, 0xff, 0x03))},
		{"VM count beyond the bytes left", "list of", seal(with(16, 3))},
		{"other schema version", "snapshot version 2", seal(with(0, 4))},
	}
	for _, c := range cases {
		if _, err := DecodeSnapshot(c.data); err == nil || !strings.Contains(err.Error(), c.contains) {
			t.Errorf("%s: DecodeSnapshot = %v, want an error mentioning %q", c.name, err, c.contains)
		}
	}
}

// checkpointFleet builds a fleet of nodes×vms VMs whose controller
// windows are full: four scripted periods of mixed parallel and
// non-parallel VMs.
func checkpointFleet(tb testing.TB, nodes, vms int) *Fleet {
	src := &scriptSource{}
	for p := 0; p < 4; p++ {
		batches := make([]NodeBatch, nodes)
		for n := range batches {
			samples := make([]VMSample, vms)
			for v := range samples {
				id := n*vms + v
				samples[v] = VMSample{ID: id, Parallel: v%4 != 3, Seq: uint64(p + 1),
					AvgSpinLatency: sim.Time(50+id%200+p) * sim.Microsecond}
			}
			batches[n] = NodeBatch{Node: n, Samples: samples}
		}
		src.periods = append(src.periods, batches)
	}
	f := NewFleet(core.DefaultConfig(), src, &mapActuator{}, FleetOptions{})
	if err := f.Run(); err != nil {
		tb.Fatal(err)
	}
	return f
}

// The snapshot layer's benchmarks run at 2048 nodes × 4 VMs, the
// fleet-synthetic checkpoint size.
const benchNodes, benchVMs = 2048, 4

// TestSnapshotEncodeAllocs pins a checkpoint's allocations at the
// benchmark size: Snapshot carves its VM lists and history windows
// from chunked arenas and Encode writes into one buffer, so imaging
// 2048 nodes × 4 VMs takes tens of allocations, not one per list; and
// Encode sizes that buffer to the checkpoint, allocating at most a
// quarter more bytes than it writes.
func TestSnapshotEncodeAllocs(t *testing.T) {
	f := checkpointFleet(t, benchNodes, benchVMs)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := f.Snapshot().Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Snapshot().Encode() of %d×%d VMs makes %v allocations, want ≤ 200", benchNodes, benchVMs, allocs)
	}
	snap := f.Snapshot()
	var before, after runtime.MemStats
	alloc, size := uint64(math.MaxUint64), 0
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		enc, err := snap.Encode()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc, size = min(alloc, after.TotalAlloc-before.TotalAlloc), len(enc)
	}
	if float64(alloc) > 1.25*float64(size) {
		t.Errorf("Encode of a %d-byte checkpoint allocates %d bytes, want ≤ 1.25×", size, alloc)
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	snap := checkpointFleet(b, benchNodes, benchVMs).Snapshot()
	enc, _ := snap.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	enc, _ := checkpointFleet(b, benchNodes, benchVMs).Snapshot().Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSnapshot(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetCheckpointRestore times one full checkpoint/restore
// cycle: Snapshot, Encode, DecodeSnapshot, Restore into a fresh fleet.
func BenchmarkFleetCheckpointRestore(b *testing.B) {
	f := checkpointFleet(b, benchNodes, benchVMs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := f.Snapshot().Encode()
		if err != nil {
			b.Fatal(err)
		}
		snap, err := DecodeSnapshot(enc)
		if err != nil {
			b.Fatal(err)
		}
		if err := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{}).Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
