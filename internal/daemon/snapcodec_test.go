package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// refDecodeSnapshot is the reflective decoder the codec replaced, kept
// as the oracle: a version probe, then a full json.Unmarshal.
func refDecodeSnapshot(data []byte) (*FleetSnapshot, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Version != SnapshotVersion {
		return nil, fmt.Errorf("daemon: snapshot version %d, want %d", probe.Version, SnapshotVersion)
	}
	var s FleetSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// refEncode is the reflective encoder the codec replaced.
func refEncode(t testing.TB, s *FleetSnapshot) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// errClass buckets a decode error for the precedence rule: a syntax
// error beats a version mismatch, which beats a type error.
func errClass(err error) string {
	var jsonSyntax *json.SyntaxError
	var ours *syntaxError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &jsonSyntax), errors.As(err, &ours):
		return "syntax"
	case strings.Contains(err.Error(), "snapshot version"):
		return "version"
	}
	return "type"
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

// TestSnapshotCodecOracle pins the codec to encoding/json on generated
// snapshots: Encode writes MarshalIndent's bytes, and DecodeSnapshot of
// them gives the reflective decode's value (or error class).
func TestSnapshotCodecOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		s := genSnapshot(t, r)
		got, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncode(t, s); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: Encode differs from json.MarshalIndent\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		checkDecodeParity(t, got)
	}
}

// hasRepeatedKey reports whether any object in data holds two keys
// that encoding/json would match to the same field (bytes.EqualFold);
// DecodeSnapshot deliberately rejects such documents.
func hasRepeatedKey(data []byte) bool {
	type frame struct {
		obj, wantKey bool
		keys         []string
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				stack = append(stack, &frame{obj: d == '{', wantKey: d == '{'})
			default:
				stack = stack[:len(stack)-1]
				if len(stack) > 0 && stack[len(stack)-1].obj {
					stack[len(stack)-1].wantKey = true
				}
			}
			continue
		}
		if top == nil || !top.obj {
			continue
		}
		if !top.wantKey {
			top.wantKey = true
			continue
		}
		key := tok.(string)
		for _, k := range top.keys {
			if strings.EqualFold(k, key) {
				return true
			}
		}
		top.keys = append(top.keys, key)
		top.wantKey = false
	}
}

// checkDecodeParity asserts DecodeSnapshot matches the reflective
// decoder on data: same acceptance, same error class, same value.
// Documents with a repeated key are exempt (deliberate narrowing), but
// a repeated-key error on any other document is a failure.
func checkDecodeParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeSnapshot(data)
	repeated := hasRepeatedKey(data)
	if err != nil && strings.Contains(err.Error(), "repeated") && !repeated {
		t.Fatalf("DecodeSnapshot(%q) claims a repeated key: %v", data, err)
	}
	if repeated {
		return
	}
	want, werr := refDecodeSnapshot(data)
	if errClass(err) != errClass(werr) {
		t.Fatalf("DecodeSnapshot(%q):\n got error %v (%s)\nwant error %v (%s)", data, err, errClass(err), werr, errClass(werr))
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSnapshot(%q):\n got %+v\nwant %+v", data, got, want)
	}
}

// snapshotSeeds are the decoder inputs every parity check starts from.
func snapshotSeeds(t testing.TB) [][]byte {
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet_snapshot.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
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
		// Whitespace runs around the eight-byte skip, and keys out of
		// schema order.
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

// FuzzDecodeSnapshot checks that no input panics DecodeSnapshot and
// that it keeps parity with encoding/json (checkDecodeParity).
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range snapshotSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeParity(t, data)
	})
}

// TestDecodeTimeFastPath pins the decoder's one-pass duration reader
// to sim.ParseTimeJSON: each token it accepts, it must accept whole and
// read to the same value, and every other token must reach the general
// path. fast marks the tokens the fast path is meant to take.
func TestDecodeTimeFastPath(t *testing.T) {
	cases := []struct {
		tok  string
		fast bool
	}{
		{`"7ns"`, true}, {`"7us"`, true}, {`"7µs"`, true}, {`"7ms"`, true}, {`"7s"`, true},
		{`"7\u00b5s"`, false}, // the same µs, escaped
		{`"7μs"`, false},      // U+03BC, which time.ParseDuration also reads as µs
		{`"7m"`, false}, {`"7h"`, false}, {`"1m30s"`, false}, {`"7"`, false},
		{`"0"`, false}, {`"0s"`, true}, {`"000ms"`, true}, {`"007ms"`, true},
		{`"1.5ms"`, true}, {`"0.5ms"`, true}, {`"1.500ms"`, true}, {`"1.234567ms"`, true},
		{`"1.2345678ms"`, false}, {`"1.234us"`, true}, {`"1.2345µs"`, false}, {`"1.5ns"`, false},
		{`"1.123456789s"`, true}, {`"1.1234567891s"`, false}, {`"1.ms"`, false}, {`".5ms"`, false},
		{`"1..5ms"`, false}, {`"+5ms"`, false}, {`"-5ms"`, false}, {`"ms"`, false}, {`""`, false},
		{`"9223372036854775807ns"`, false}, {`"9223372036854775808ns"`, false},
		{`"9223372036853ms"`, true}, {`"9223372036854ms"`, false}, {`"9223372035.999999999s"`, true},
		{`"9223372036s"`, false}, {`"9223372037s"`, false},
		{`"99999999999999999999s"`, false}, {`"5ms `, false}, {`"5ns`, false}, {`"5m"`, false},
		{`5000`, false}, {`null`, false},
	}
	for _, c := range cases {
		tok := []byte(c.tok)
		got, n := fastTime(tok)
		if (n > 0) != c.fast {
			t.Errorf("fastTime(%s) took the fast path: %v, want %v", tok, n > 0, c.fast)
		}
		if n == 0 {
			continue
		}
		want, err := sim.ParseTimeJSON(tok)
		if n != len(tok) || err != nil || got != want {
			t.Errorf("fastTime(%s) = %v over %d bytes; ParseTimeJSON = %v, %v", tok, got, n, want, err)
		}
	}
	// Every token, fast or not, decodes as encoding/json reads it.
	for _, c := range cases {
		if json.Valid([]byte(c.tok)) {
			checkDecodeParity(t, []byte(`{"version":1,"config":{"alpha":`+c.tok+`}}`))
		}
	}
}

// nested is a snapshot whose nodes list holds arrays nested k deep:
// k+2 levels in all.
func nested(k int) string {
	return `{"version":1,"nodes":[` + strings.Repeat("[", k) + strings.Repeat("]", k) + `]}`
}

// TestDecodeSnapshotErrorPrecedence pins which error a document with
// several faults gets: syntax beats version mismatch beats type errors,
// a type error on the version field itself ranks with the version
// check, and a repeated field is rejected.
func TestDecodeSnapshotErrorPrecedence(t *testing.T) {
	cases := []struct {
		in, class, contains string
	}{
		{`{"version":2,"nodes":[}`, "syntax", ""},
		{`{"periods":"x","version":1,`, "syntax", ""},
		{`{"version":1} x`, "syntax", ""},
		{``, "syntax", ""},
		{nested(maxDepth - 1), "syntax", "depth"},
		{nested(maxDepth - 2), "type", "array"},
		{`{"periods":"x","nodes":{},"version":2}`, "version", "version 2"},
		{`{"config":{"window":1.5},"version":3}`, "version", "version 3"},
		{`null`, "version", "version 0"},
		{`{"periods":"x","version":"1"}`, "type", "version"},
		{`[{"version":1}]`, "type", "array"},
		{`{"version":1,"periods":-1}`, "type", "uint64"},
		{`{"version":1,"nodes":[{"vms":[{"lat":[true]}]}]}`, "type", "nanosecond"},
		{`{"version":1,"periods":1,"Periods":2}`, "type", "repeated"},
		{`{"version":1,"nodes":[{"vms":[{"id":1,"id":1}]}]}`, "type", "repeated"},
		{`{"version":2,"version":1}`, "type", "repeated"},
	}
	for _, c := range cases {
		_, err := DecodeSnapshot([]byte(c.in))
		if got := errClass(err); got != c.class || !strings.Contains(fmt.Sprint(err), c.contains) {
			t.Errorf("DecodeSnapshot(%.60q) = %v (%s), want a %s error mentioning %q", c.in, err, got, c.class, c.contains)
		}
		if !strings.Contains(fmt.Sprint(err), "repeated") {
			_, werr := refDecodeSnapshot([]byte(c.in))
			if errClass(werr) != c.class {
				t.Errorf("reference decoder gives %s for %.60q, want %s", errClass(werr), c.in, c.class)
			}
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
// 2048 nodes × 4 VMs takes tens of allocations, not one per list.
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
