package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricKind says where a metric's regression bound lives.
type metricKind int

const (
	// endToEnd metrics are defined on every workload; BENCHMARK.json
	// declares them with their bounds.
	endToEnd metricKind = iota
	// extra metrics are end-to-end but defined only on some workloads, so
	// BENCHMARK.json cannot declare them; their bounds are kept here.
	extra
	// layer metrics describe one layer, come from traced runs only, and
	// have no bound.
	layer
	// info metrics describe the run, not the program, and are never
	// compared.
	info
)

// metricDef describes one reported metric. floor is an absolute
// tolerance that keeps the comparator from flagging noise on values near
// zero.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	kind   metricKind
	// scaled marks a CPU time reported at the reference host speed
	// (calib.go).
	scaled bool
	bound  float64 // extra metrics only
	floor  float64
}

// catalog lists every metric the benchmark can report, in the order it
// prints them. Names starting with "sim_" are simulated quantities; every
// other time is host time: CPU time for setup_s and cpu_s, wall time for
// the rest.
var catalog = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", scaled: true, floor: 0.010},
	{name: "cpu_s", unit: "s", better: "lower", scaled: true},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},

	{name: "wall_s", unit: "s", better: "lower", kind: extra, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", kind: extra, bound: 0.25},
	{name: "decisions_per_s", unit: "1/s", better: "higher", kind: extra, bound: 0.25},
	{name: "step_p50_ms", unit: "ms", better: "lower", kind: extra, bound: 0.25},
	{name: "checkpoint_ms", unit: "ms", better: "lower", kind: extra, bound: 0.25},
	{name: "restore_ms", unit: "ms", better: "lower", kind: extra, bound: 0.25},
	{name: "scrape_ms", unit: "ms", better: "lower", kind: extra, bound: 0.25},
	{name: "claims_reproduced", unit: "count", better: "higher", kind: extra},
	{name: "atc_gain_x", unit: "x", better: "higher", kind: extra, bound: 0.05},
	{name: "sim_round_s", unit: "s", better: "lower", kind: extra, bound: 0.02},
	{name: "error_rate", unit: "ratio", better: "lower", kind: extra},

	// ref_cpu_ms is the reference measurement a rep's CPU times were
	// scaled by: a measured CPU time is its reported value × ref_cpu_ms /
	// (1000 × refNominal).
	{name: "ref_cpu_ms", unit: "ms", better: "lower", kind: info},

	{name: "sim.events", unit: "count", better: "lower", kind: layer},
	{name: "sim.ns_per_event", unit: "ns", better: "lower", kind: layer},
	{name: "sim.probe_ns_per_event", unit: "ns", better: "lower", kind: layer},
	{name: "netmodel.packets", unit: "count", better: "lower", kind: layer},
	{name: "netmodel.wire_bytes", unit: "bytes", better: "lower", kind: layer},
	{name: "netmodel.probe_ns_per_send", unit: "ns", better: "lower", kind: layer},
	{name: "vmm.ctx_switches", unit: "count", better: "lower", kind: layer},
	{name: "vmm.wakes", unit: "count", better: "lower", kind: layer},
	{name: "cachemodel.misses", unit: "count", better: "lower", kind: layer},
	{name: "cachemodel.probe_ns_per_advance", unit: "ns", better: "lower", kind: layer},
	{name: "core.probe_ns_per_vm", unit: "ns", better: "lower", kind: layer},
	{name: "core.allocs_per_vm", unit: "count", better: "lower", kind: layer},
	{name: "fleet.sample_ms", unit: "ms", better: "lower", kind: layer},
	{name: "fleet.apply_us", unit: "us", better: "lower", kind: layer},
	{name: "fleet.pipeline_ns_per_vm", unit: "ns", better: "lower", kind: layer},
	{name: "fleet.pipeline_overhead_x", unit: "x", better: "lower", kind: layer},
	{name: "fleet.allocs_per_decision", unit: "count", better: "lower", kind: layer},
	{name: "fleet.step_p98_ms", unit: "ms", better: "lower", kind: layer},
	{name: "fleet.overflow", unit: "count", better: "lower", kind: layer},
	{name: "fleet.dropped_periods", unit: "count", better: "lower", kind: layer},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower", kind: layer},
	{name: "snapshot.decode_ms", unit: "ms", better: "lower", kind: layer},
	{name: "snapshot.restore_ms", unit: "ms", better: "lower", kind: layer},
	{name: "snapshot.bytes", unit: "bytes", better: "lower", kind: layer},
	{name: "telemetry.snapshot_ms", unit: "ms", better: "lower", kind: layer},
	{name: "telemetry.prometheus_ms", unit: "ms", better: "lower", kind: layer},
	{name: "telemetry.exposition_bytes", unit: "bytes", better: "lower", kind: layer},
	{name: "telemetry.series_points", unit: "count", better: "lower", kind: layer},
	{name: "runner.cells", unit: "count", better: "lower", kind: layer},
	{name: "experiment.fig1_s", unit: "s", better: "lower", kind: layer},
	{name: "experiment.fig2_s", unit: "s", better: "lower", kind: layer},
	{name: "experiment.fig5_s", unit: "s", better: "lower", kind: layer},
	{name: "experiment.fig10_s", unit: "s", better: "lower", kind: layer},
	{name: "experiment.fig13_s", unit: "s", better: "lower", kind: layer},
	{name: "experiment.euclid_s", unit: "s", better: "lower", kind: layer},
	{name: "go.alloc_mb", unit: "MB", better: "lower", kind: layer},
	{name: "go.gc_cycles", unit: "count", better: "lower", kind: layer},
	{name: "trace.overhead_x", unit: "x", better: "lower", kind: layer},
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(catalog))
	for _, d := range catalog {
		m[d.name] = d
	}
	return m
}()

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics a
// run prints on its last line, and the end-to-end bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that it declares exactly the
// benchmark's workloads and end-to-end metrics, and only per-layer metrics
// the benchmark computes, each with the unit and direction used here.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	check := func(m specMetric, kind metricKind) error {
		d, ok := metricByName[m.Name]
		switch {
		case !ok || d.kind != kind:
			return fmt.Errorf("%s: %q is not a metric of that section here", path, m.Name)
		case d.unit != m.Unit || d.better != m.Better:
			return fmt.Errorf("%s: %q is %s/%s here but %s/%s in the file", path, m.Name, d.unit, d.better, m.Unit, m.Better)
		case kind == endToEnd && m.Bound == nil:
			return fmt.Errorf("%s: end-to-end metric %q has no bound", path, m.Name)
		}
		return nil
	}
	for _, m := range s.EndToEnd {
		if err := check(m, endToEnd); err != nil {
			return nil, err
		}
	}
	for _, m := range s.PerLayer {
		if err := check(m, layer); err != nil {
			return nil, err
		}
	}
	for _, d := range catalog {
		if d.kind == endToEnd && s.endToEnd(d.name) == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %q is not declared", path, d.name)
		}
	}
	if len(s.Workloads) != len(workloadOrder) {
		return nil, fmt.Errorf("%s: declares %d workloads, the benchmark has %d", path, len(s.Workloads), len(workloadOrder))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadOrder[i] {
			return nil, fmt.Errorf("%s: workload %d is %q, want %q", path, i, w.Name, workloadOrder[i])
		}
	}
	return &s, nil
}

func (s *spec) endToEnd(name string) *specMetric {
	for i := range s.EndToEnd {
		if s.EndToEnd[i].Name == name {
			return &s.EndToEnd[i]
		}
	}
	return nil
}

// bound returns the regression tolerance of a metric: the BENCHMARK.json
// bound for an end-to-end metric, the catalog's for an extra one. ok is
// false for per-layer metrics, which have none.
func (s *spec) bound(name string) (bound, floor float64, ok bool) {
	d, known := metricByName[name]
	switch {
	case !known || d.kind == layer || d.kind == info:
		return 0, 0, false
	case d.kind == extra:
		return d.bound, d.floor, true
	}
	m := s.endToEnd(name)
	if m == nil {
		return 0, 0, false
	}
	return *m.Bound, d.floor, true
}
