package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// TestLiveTelemetrySurface drives a full atcd run in-process: sim
// backend, HTTP telemetry surface, timeline and JSONL artifacts, and
// signal-driven shutdown. It is the acceptance check that a live atcd
// answers /metrics with per-node spin-latency and controller-decision
// series.
func TestLiveTelemetrySurface(t *testing.T) {
	dir := t.TempDir()
	timeline := filepath.Join(dir, "timeline.json")
	jsonl := filepath.Join(dir, "series.jsonl")

	addrc := make(chan string, 1)
	listenReady = func(addr string) { addrc <- addr }
	defer func() { listenReady = nil }()

	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-backend", "sim", "-periods", "60",
			"-listen", "127.0.0.1:0",
			"-timeline", timeline, "-jsonl", jsonl,
		}, &stdout, &stderr)
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited before listening: %v\n%s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the listener")
	}

	// The surface stays up after the control loop ends, so polling until
	// the run's series appear observes a complete scrape deterministically.
	metrics := pollMetrics(t, addr, done, &stderr)
	for _, want := range []string{
		"atc_vm_spin_latency_ns_last{node=", // per-node spin latency
		"atc_daemon_decision_apply_total",   // controller decisions
		"atc_daemon_slice_ns_last{vm=",      // per-VM slice series
		"atc_sched_dispatches_total{node=",  // per-node scheduler counters
		"atc_spin_latency_bucket{node=",     // spin-latency histogram
		// what the retention caps evicted, exported even at zero
		"atc_telemetry_dropped_points_total ",
		"atc_telemetry_dropped_spans_total ",
		"atc_telemetry_dropped_records_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}

	// /debug/atc must be a JSON snapshot with a fleet summary.
	resp, err := http.Get("http://" + addr + "/debug/atc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dbg struct {
		Summary struct {
			Fleet map[string]any `json:"fleet"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatalf("/debug/atc is not JSON: %v", err)
	}
	if p, ok := dbg.Summary.Fleet["periods"].(float64); !ok || p <= 0 {
		t.Fatalf("/debug/atc summary has no committed periods: %v", dbg.Summary)
	}

	// SIGINT must shut the server down and let run return cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
	if !strings.Contains(stderr.String(), "telemetry server closed") {
		t.Errorf("shutdown did not report closing the server:\n%s", stderr.String())
	}

	// The timeline artifact must parse as trace-event JSON and carry
	// both scheduling slices and telemetry spans.
	raw, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("timeline is not trace-event JSON: %v", err)
	}
	var sched, spin, decision bool
	for _, ev := range file.TraceEvents {
		switch {
		case ev.Ph == "X" && strings.Contains(ev.Name, "/"):
			sched = true
		case ev.Name == "spin":
			spin = true
		case ev.Name == "decision":
			decision = true
		}
	}
	if !sched || !spin || !decision {
		t.Errorf("timeline lacks expected events: sched=%v spin=%v decision=%v", sched, spin, decision)
	}

	// The JSONL artifact must be line-parseable with a meta header.
	jraw, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(jraw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("jsonl dump has %d lines", len(lines))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("jsonl line %d is not JSON: %v", i, err)
		}
		if i == 0 && m["type"] != "meta" {
			t.Fatalf("jsonl does not start with a meta line: %s", ln)
		}
	}
}

// pollMetrics scrapes /metrics until the daemon's committed series are
// visible (the loop may still be mid-run on the first scrapes).
func pollMetrics(t *testing.T, addr string, done chan error, stderr *bytes.Buffer) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("run exited during scrape: %v\n%s", err, stderr.String())
		default:
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("/metrics content type %q", ct)
			}
			last = string(body)
			// sched_dispatches totals land at finalization, so their
			// presence means the scrape covers the whole run.
			if strings.Contains(last, "atc_daemon_decision_apply_total") &&
				strings.Contains(last, "atc_vm_spin_latency_ns_last") &&
				strings.Contains(last, "atc_sched_dispatches_total") {
				return last
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("metrics never showed the run's series; last scrape:\n%s", last)
	return ""
}

// TestDemoBackend keeps the original demo path working through run().
func TestDemoBackend(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-backend", "demo", "-periods", "12"}, &stdout, &stderr); err != nil {
		t.Fatalf("demo run failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "vm1 ") {
		t.Errorf("demo produced no actuation lines:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "12 control periods executed") {
		t.Errorf("missing period summary:\n%s", stderr.String())
	}
}

// TestFleetSnapshotRoundTrip drives atcd's fleet mode end to end: a
// hollow 8-node run writes a snapshot at exit, a second process
// restores from it and keeps going, and the /debug/atc surface of the
// first run exposes the per-node fleet table with policies.
func TestFleetSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap1 := filepath.Join(dir, "fleet1.ckpt")
	snap2 := filepath.Join(dir, "fleet2.ckpt")

	addrc := make(chan string, 1)
	listenReady = func(addr string) { addrc <- addr }
	defer func() { listenReady = nil }()

	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-nodes", "8", "-shards", "2", "-hollow", "-periods", "30",
			"-snapshot", snap1, "-listen", "127.0.0.1:0",
		}, &stdout, &stderr)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("fleet run exited before listening: %v\n%s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the fleet listener")
	}

	// /debug/atc must expose the fleet summary and the per-node table.
	type fleetDebug struct {
		Summary struct {
			Fleet struct {
				Nodes   int    `json:"nodes"`
				Shards  int    `json:"shards"`
				Periods uint64 `json:"periods"`
			} `json:"fleet"`
			Nodes []struct {
				Node   int    `json:"node"`
				Policy string `json:"policy"`
			} `json:"nodes"`
		} `json:"summary"`
	}
	var dbg fleetDebug
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("fleet table never filled: %+v", dbg.Summary)
		}
		resp, err := http.Get("http://" + addr + "/debug/atc")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(body, &dbg); err != nil {
				t.Fatalf("/debug/atc is not JSON: %v\n%s", err, body)
			}
			if dbg.Summary.Fleet.Periods > 0 && len(dbg.Summary.Nodes) == 8 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if dbg.Summary.Fleet.Nodes != 8 || dbg.Summary.Fleet.Shards != 2 {
		t.Errorf("fleet summary = %+v, want 8 nodes over 2 shards", dbg.Summary.Fleet)
	}
	for _, row := range dbg.Summary.Nodes {
		if row.Policy == "" {
			t.Errorf("node %d has no policy in the fleet table", row.Node)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleet run failed: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet run did not exit after SIGINT")
	}
	if !strings.Contains(stderr.String(), "snapshot of 8 nodes written") {
		t.Errorf("missing snapshot confirmation:\n%s", stderr.String())
	}

	// Second process: restore and continue without the HTTP surface.
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{
		"-nodes", "8", "-shards", "4", "-hollow", "-periods", "30",
		"-restore", snap1, "-snapshot", snap2,
	}, &stdout, &stderr); err != nil {
		t.Fatalf("restored fleet run failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "restored 8 nodes from") {
		t.Errorf("missing restore confirmation:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := daemon.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("exit snapshot does not decode: %v", err)
	}
	if out.Version != 1 || len(out.Nodes) != 8 {
		t.Errorf("exit snapshot: version=%d nodes=%d, want version 1 with 8 nodes", out.Version, len(out.Nodes))
	}
	// The restored run continued from the first run's state: its nodes
	// carry more committed periods than one 30-period run can produce.
	for _, n := range out.Nodes {
		if n.Periods <= 30 {
			t.Errorf("restored node periods = %d, want > 30 (carried over)", n.Periods)
		}
	}
}

// TestFleetFlagValidation pins the fleet-mode flag guards.
func TestFleetFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nodes", "4", "-backend", "stdio"}, &stdout, &stderr); err == nil {
		t.Fatal("fleet mode accepted the stdio backend")
	}
	if err := run([]string{"-nodes", "2", "-restore", "/does/not/exist.json"}, &stdout, &stderr); err == nil {
		t.Fatal("missing -restore file did not error")
	}
}

// TestDemoSnapshotRoundTrip pins -snapshot/-restore outside the sim
// backend: a demo run's node-0 state carries over into the next run.
func TestDemoSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "demo.ckpt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-periods", "12", "-snapshot", snap}, &stdout, &stderr); err != nil {
		t.Fatalf("demo run: %v\n%s", err, stderr.String())
	}
	stderr.Reset()
	if err := run([]string{"-periods", "12", "-restore", snap, "-snapshot", snap}, &stdout, &stderr); err != nil {
		t.Fatalf("restored demo run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "restored 1 nodes from") ||
		!strings.Contains(stderr.String(), "24 control periods executed") {
		t.Errorf("restored run did not continue from the snapshot:\n%s", stderr.String())
	}
}

// TestSnapshotWriteIsAtomic pins -snapshot's write: an overwrite lands
// the new bytes and leaves no temp file, and a write that fails after
// its temp file exists leaves the previous snapshot byte-identical.
func TestSnapshotWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	write := func(data string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		}
	}
	onlyFile := func() {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "fleet.json" {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want only fleet.json", names)
		}
	}
	if err := os.WriteFile(path, []byte("old snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, write("new snapshot")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new snapshot" {
		t.Fatalf("after overwrite the file holds %q", got)
	}
	onlyFile()

	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn sna"); err != nil {
			return err
		}
		if f, ok := w.(*os.File); !ok || filepath.Dir(f.Name()) != dir {
			t.Errorf("write does not go to a temp file beside the target: %T", w)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "new snapshot" {
		t.Fatalf("a failed write changed the snapshot to %q", got)
	}
	onlyFile()
}

// TestBadFlags proves flag errors surface as errors, not exits.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-backend", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown backend did not error")
	}
	if err := run([]string{"-backend", "sim", "-swap", "garbage"}, &stdout, &stderr); err == nil {
		t.Fatal("bad -swap did not error")
	}
	// Sim-only flags must not be silently ignored by the other backends.
	if err := run([]string{"-hollow", "-periods", "5"}, &stdout, &stderr); err == nil {
		t.Fatal("-hollow accepted on the demo backend")
	}
	if err := run([]string{"-backend", "demo", "-periods", "5", "-swap", "2:0:ATC"}, &stdout, &stderr); err == nil {
		t.Fatal("-swap accepted on the demo backend")
	}
	for _, backend := range []string{"demo", "sim"} {
		if err := run([]string{"-backend", backend, "-periods", "-1"}, &stdout, &stderr); err == nil {
			t.Fatalf("negative -periods accepted on the %s backend", backend)
		}
	}
	if err := run([]string{"-backend", "sim", "-periods", "0", "-swap", "1:0:ATC"}, &stdout, &stderr); err == nil {
		t.Fatal("-swap accepted with no period to apply it in")
	}
}

// TestRestoreSnapshotAtZeroPeriods pins that -periods 0 runs no period
// on every backend, so restoring a checkpoint and snapshotting straight
// away writes the restored state back byte for byte.
func TestRestoreSnapshotAtZeroPeriods(t *testing.T) {
	for _, shape := range [][]string{{"-backend", "demo"}, {"-nodes", "4", "-hollow"}} {
		dir := t.TempDir()
		first, second := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")
		var stdout, stderr bytes.Buffer
		if err := run(append(slices.Clone(shape), "-periods", "10", "-snapshot", first), &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", shape, err, stderr.String())
		}
		stderr.Reset()
		if err := run(append(slices.Clone(shape), "-periods", "0", "-restore", first, "-snapshot", second), &stdout, &stderr); err != nil {
			t.Fatalf("%v -periods 0: %v\n%s", shape, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "atcd: 10 control periods executed") {
			t.Errorf("%v -periods 0 ran periods:\n%s", shape, stderr.String())
		}
		a, errA := os.ReadFile(first)
		b, errB := os.ReadFile(second)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: the restored state written back at -periods 0 differs from the checkpoint", shape)
		}
	}
}

// updateGolden rewrites the atcd golden files from the current build.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDemoStdoutGolden pins the demo backend's actuation trace byte for
// byte (regenerate with -update).
func TestDemoStdoutGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-backend", "demo", "-periods", "40"}, &stdout, &stderr); err != nil {
		t.Fatalf("demo run failed: %v\n%s", err, stderr.String())
	}
	golden := filepath.Join("testdata", "demo_periods40.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("demo stdout differs from %s:\ngot:\n%s\nwant:\n%s", golden, stdout.Bytes(), want)
	}
}

// TestStdioSourceParse pins the stdio backend's line parser: well-formed
// groups become node 0's samples, and input the controller cannot take
// (NaN or overflowing latencies and admin slices, a VM named twice in
// one period) is rejected as an error instead of reaching it.
func TestStdioSourceParse(t *testing.T) {
	cases := []struct {
		in      string
		want    []daemon.VMSample
		wantErr string
	}{
		{in: "1 2000 1\n2 0.5 0 3000\n--\n", want: []daemon.VMSample{
			{ID: 1, AvgSpinLatency: 2 * sim.Millisecond, Parallel: true},
			{ID: 2, AvgSpinLatency: 500, AdminSlice: 3 * sim.Millisecond},
		}},
		{in: "1 0 true\n", want: []daemon.VMSample{{ID: 1, Parallel: true}}},
		{in: "1 NaN 1\n--\n", wantErr: "bad latency"},
		{in: "1 1e30 1\n--\n", wantErr: "bad latency"},
		{in: "1 +Inf 1\n--\n", wantErr: "bad latency"},
		{in: "1 -1 1\n--\n", wantErr: "bad latency"},
		{in: "1 9223372036854775.807 1\n--\n", wantErr: "bad latency"},
		{in: "1 5 0 NaN\n--\n", wantErr: "bad admin slice"},
		{in: "1 5 0 1e30\n--\n", wantErr: "bad admin slice"},
		{in: "1 5 0 -2\n--\n", wantErr: "bad admin slice"},
		{in: "1 5 1\n2 5 1\n1 6 1\n--\n", wantErr: "duplicate vm"},
		{in: "x 5 1\n--\n", wantErr: "bad vm id"},
		{in: "1 5\n--\n", wantErr: "bad input line"},
	}
	for _, tc := range cases {
		src := &stdioSource{r: bufio.NewScanner(strings.NewReader(tc.in))}
		batches, err := src.SampleFleet()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err = %v, want %q", tc.in, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case len(batches) != 1 || batches[0].Node != 0 || !reflect.DeepEqual(batches[0].Samples, tc.want):
			t.Errorf("%q: batches = %+v, want node 0 with %+v", tc.in, batches, tc.want)
		}
	}
	// A repeated ID in different periods is two samples, not a duplicate.
	src := &stdioSource{r: bufio.NewScanner(strings.NewReader("1 5 1\n--\n1 6 1\n--\n"))}
	for i := 0; i < 2; i++ {
		if _, err := src.SampleFleet(); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	if _, err := src.SampleFleet(); err != io.EOF {
		t.Fatalf("after the last group: %v, want io.EOF", err)
	}
}
