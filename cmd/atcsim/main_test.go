package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"atcsched/internal/scenario"
	"atcsched/internal/sched/registry"
	"atcsched/internal/telemetry"
)

func TestRunTinyScenario(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "CR", "-horizon", "60",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"per-cluster results", "vc0", "virtual time"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSpecFile(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(spec, []byte(
		`{"nodes":1,"horizonSec":60,"virtualClusters":[{"vms":1,"vcpus":1,"kernel":"ep","class":"A","rounds":1}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-f", spec}, &out); err != nil {
		t.Fatalf("run -f: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("scenario file run produced no output")
	}
}

func TestRunTraceSummary(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "ATC", "-horizon", "60",
		"-trace", "summary",
	}, &out)
	if err != nil {
		t.Fatalf("run -trace summary: %v", err)
	}
	if !strings.Contains(out.String(), "dispatches") {
		t.Errorf("no trace summary in output:\n%s", out.String())
	}
}

// TestRunTraceFiles checks the -trace text: and csv: writers against
// the run's own record stream: a two-node run whose per-node rings
// overflow -tracecap writes exactly the record lines of its
// fingerprint, and one CSV row per record under the header. A file
// that cannot be created is an error.
func TestRunTraceFiles(t *testing.T) {
	dir := t.TempDir()
	specJSON := `{"nodes":2,"scheduler":{"kind":"ATC"},"seed":3,"horizonSec":60,` +
		`"virtualClusters":[{"vms":2,"vcpus":2,"kernel":"lu","class":"A","rounds":1}]}`
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	const traceCap = 300
	text, csv := filepath.Join(dir, "trace.txt"), filepath.Join(dir, "trace.csv")
	for _, spec := range []string{"text:" + text, "csv:" + csv} {
		var out strings.Builder
		if err := run([]string{"-f", specPath, "-tracecap", strconv.Itoa(traceCap), "-trace", spec}, &out); err != nil {
			t.Fatalf("run -trace %s: %v", spec, err)
		}
	}

	// The reference: the same scenario recorded at the same cap.
	spec, err := scenario.Load(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	built, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	built.Scenario.World.SetRecording(telemetry.New(telemetry.Options{RecordCap: traceCap}))
	if _, err := built.Run(); err != nil {
		t.Fatal(err)
	}
	_, records, ok := strings.Cut(built.Scenario.Fingerprint(), "\ntrace dropped=")
	if !ok {
		t.Fatal("fingerprint has no record section")
	}
	dropped, records, _ := strings.Cut(records, "\n")
	want := strings.Split(strings.TrimSuffix(records, "\n"), "\n")
	if dropped == "0" || len(want) != 2*traceCap {
		t.Fatalf("reference run kept %d records and dropped %s; want both rings overflowing at %d", len(want), dropped, traceCap)
	}

	got, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n"); !slices.Equal(lines, want) {
		t.Errorf("text trace has %d lines that differ from the fingerprint's %d record lines", len(lines), len(want))
	}
	got, err = os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if rows[0] != "at_ns,kind,node,pcpu,vm,vcpu,arg_ns" || len(rows)-1 != len(want) {
		t.Errorf("csv trace: header %q and %d rows, want %d rows", rows[0], len(rows)-1, len(want))
	}

	missing := filepath.Join(dir, "no-such-dir", "trace.txt")
	if err := run([]string{"-f", specPath, "-trace", "text:" + missing}, new(strings.Builder)); err == nil {
		t.Error("an uncreatable -trace file was not reported")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-class", "Z"},
		{"-sched", "NOPE"},
		{"-f", "/nonexistent/path.json"},
		{"-trace", "wat:x", "-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1", "-kernel", "ep", "-class", "A", "-horizon", "60"},
		{"-kernel", "zz"},
		{"-horizon", "-5"},
		{"-vcs", "0"},
		{"-vcpus", "-1"},
		{"-rounds", "-1"},
		{"-slice", "-3"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestListSchedulers pins the registry-backed listing: every registered
// kind appears, the paper's comparison set leads in its order, and each
// entry carries serialized defaults.
func TestListSchedulers(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-schedulers"}, &out); err != nil {
		t.Fatalf("run -list-schedulers: %v", err)
	}
	got := out.String()
	for _, kind := range registry.Kinds() {
		if !strings.Contains(got, kind+"\t") {
			t.Errorf("listing missing kind %s:\n%s", kind, got)
		}
	}
	if !strings.Contains(got, "defaults:") || !strings.Contains(got, `"timeSlice": "30ms"`) {
		t.Errorf("listing missing serialized defaults:\n%s", got)
	}
	// Paper order: CR first, ATC after the other compared kinds.
	if cr, atc := strings.Index(got, "CR\t"), strings.Index(got, "ATC\t"); !(cr >= 0 && atc > cr) {
		t.Errorf("comparison set out of order (CR at %d, ATC at %d)", cr, atc)
	}
}

// TestUnknownSchedulerFlag pins that a typo'd -sched fails with the
// registry's enumerating error rather than a bare unknown-kind message.
func TestUnknownSchedulerFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-sched", "BOGUS", "-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1"}, &out)
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, want := range []string{`"BOGUS"`, "valid:", "CR", "ATC"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunTimelineArtifacts proves -timeline and -jsonl produce parseable
// artifacts on both the flag-built and spec-file paths.
func TestRunTimelineArtifacts(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.json")
	jl := filepath.Join(dir, "series.jsonl")
	var out strings.Builder
	err := run([]string{
		"-nodes", "2", "-vcs", "2", "-vcpus", "2", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "ATC", "-horizon", "120",
		"-timeline", tl, "-jsonl", jl,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertTimeline(t, tl)
	assertJSONL(t, jl)

	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(
		`{"nodes":1,"horizonSec":60,"virtualClusters":[{"vms":1,"vcpus":2,"kernel":"ep","class":"A","rounds":1}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	tl2 := filepath.Join(dir, "tl2.json")
	jl2 := filepath.Join(dir, "series2.jsonl")
	out.Reset()
	if err := run([]string{"-f", spec, "-timeline", tl2, "-jsonl", jl2}, &out); err != nil {
		t.Fatalf("run -f: %v", err)
	}
	assertTimeline(t, tl2)
	assertJSONL(t, jl2)
}

// assertTimeline checks the file parses as trace-event JSON with events.
func assertTimeline(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s is not trace-event JSON: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s has no events", path)
	}
}

// assertJSONL checks every line parses and the header is a meta line.
func assertJSONL(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s has only %d lines", path, len(lines))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("%s line %d is not JSON: %v", path, i, err)
		}
		if i == 0 && m["type"] != "meta" {
			t.Fatalf("%s does not start with a meta line: %s", path, ln)
		}
	}
}

// updateGolden rewrites the atcsim golden files from the current build.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFaultsScenarioGolden pins the monitor-fault example scenario —
// ATC under a straggler, packet loss, monitor dropouts and monitor
// noise — byte for byte (regenerate with -update). Every counted kind
// must inject: a window that opens after the measured run would leave
// its counter at zero.
func TestFaultsScenarioGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-f", filepath.Join("..", "..", "examples", "scenarios", "faults.json")}, &out); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"lost", "dropped", "noised"} {
		if m := regexp.MustCompile(` ` + kind + `=(\d+) `).FindStringSubmatch(out.String()); m == nil || m[1] == "0" {
			t.Errorf("faults.json: %s not injected:\n%s", kind, out.String())
		}
	}
	golden := filepath.Join("testdata", "faults.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if out.String() != string(want) {
		t.Errorf("faults.json output differs from %s:\ngot:\n%s\nwant:\n%s", golden, out.String(), want)
	}
}
