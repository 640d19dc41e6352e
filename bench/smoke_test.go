package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// smoke test re-executes it to run a rep.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny size, one traced rep (with the
// probes) and one untraced, through the same path as a real run: child
// processes, correctness gates, report, span file and result line.
func TestSmoke(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := runOpts{
		workloads: workloadOrder, seed: 7, seconds: 1, reps: 2, trace: true,
		spansPath: filepath.Join(dir, "spans.json"), outPath: filepath.Join(dir, "out.json"),
		spec: s, exe: exe, tiny: true,
	}
	var stdout bytes.Buffer
	ok, err := run(opts, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("correctness checks failed:\n%s", stdout.String())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result struct {
		Correct   bool
		Attempted uint64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !result.Correct || result.Attempted == 0 {
		t.Errorf("result %+v", result)
	}
	for _, w := range workloadOrder {
		for _, m := range s.PerLayer {
			if got, ok := result.Metrics[w+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s/%s missing from the result line", w, m.Name)
			}
		}
	}
	doc, err := readOutFile(opts.outPath)
	if err != nil || len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("out file: %v, %+v", err, doc)
	}
	// Each workload reaches the layers its metrics are attributed to,
	// including those the result line leaves out.
	for _, c := range []struct{ workload, metric string }{
		{"paper-score", "runner.cells"}, {"paper-score", "experiment.fig1_s"},
		{"hollow-ring", "sim.events"}, {"hollow-ring", "netmodel.packets"},
		{"fleet-synthetic", "snapshot.bytes"}, {"fleet-synthetic", "fleet.pipeline_ns_per_vm"},
		{"atcd-loop", "telemetry.exposition_bytes"}, {"atcd-loop", "telemetry.prometheus_ms"},
		{"atcd-loop", "vmm.ctx_switches"}, {"atcd-loop", "core.probe_ns_per_vm"},
		{"atcd-loop", "trace.overhead_x"},
	} {
		i := slices.IndexFunc(doc.Workloads, func(w wlSummary) bool { return w.Name == c.workload })
		if got := doc.Workloads[i].metric(c.metric).Median; got <= 0 {
			t.Errorf("%s %s = %g, want > 0", c.workload, c.metric, got)
		}
	}
	// Every declared per-layer time is measured on every workload, so none
	// reads as a constant 0.
	for _, w := range doc.Workloads {
		for _, m := range s.PerLayer {
			switch m.Unit {
			case "ns", "us", "ms", "s":
				if w.metric(m.Name).N == 0 {
					t.Errorf("%s %s has no samples", w.Name, m.Name)
				}
			}
		}
	}
	for _, w := range workloadOrder {
		for _, m := range s.EndToEnd {
			if !strings.Contains(stdout.String(), "\n"+w+" "+m.Name+" ") {
				t.Errorf("report has no %s %s line", w, m.Name)
			}
		}
	}

	var spans struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	b, err := os.ReadFile(opts.spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(spans.TraceEvents) < 4 {
		t.Errorf("span file holds %d events", len(spans.TraceEvents))
	}
}

// TestGateCatchesDivergentReps checks that reps of one seed whose outputs
// differ fail the run.
func TestGateCatchesDivergentReps(t *testing.T) {
	res := func(fp string) repOutcome {
		return repOutcome{res: &repResult{Fingerprint: fp, Attempted: 1, Values: map[string]float64{"wall_s": 1}}}
	}
	w := &wlRun{name: "hollow-ring", reps: []repOutcome{res("a"), res("a")}}
	if s := summarizeRun(runOpts{}, w); !s.Correct {
		t.Errorf("identical reps failed: %v", s.Problems)
	}
	w.reps = append(w.reps, res("b"))
	if s := summarizeRun(runOpts{}, w); s.Correct {
		t.Error("divergent rep passed the gate")
	}
}

// TestHostScaling checks that a rep's CPU times are brought to the
// reference host speed and every other metric is reported as measured.
func TestHostScaling(t *testing.T) {
	rep := repOutcome{hostRef: 2 * refNominal, res: &repResult{Fingerprint: "a", Attempted: 1,
		Values: map[string]float64{"setup_s": 0.5, "cpu_s": 3, "wall_s": 4, "peak_rss_mb": 10}}}
	s := summarizeRun(runOpts{}, &wlRun{name: "hollow-ring", reps: []repOutcome{rep}})
	for name, want := range map[string]float64{
		"setup_s": 0.25, "cpu_s": 1.5, "wall_s": 4, "peak_rss_mb": 10, "ref_cpu_ms": 2e3 * refNominal,
	} {
		if got := s.metric(name).Median; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if r := hostRef(); r <= 0 {
		t.Errorf("hostRef() = %g, want > 0", r)
	}
}
