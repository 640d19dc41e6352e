package daemon

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/telemetry"
)

// get serves one GET of path through h and returns the body and the
// heap allocations the request made.
func get(t *testing.T, h http.Handler, path string) (string, uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.String(), after.Mallocs - before.Mallocs
}

// exposition maps each sample of a Prometheus text body, "name{labels}",
// to its value.
func exposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestLongRunTelemetryReportsPresent runs a fleet over a hollow
// SimBackend with small telemetry caps for enough periods to pass each
// cap several times, serving /metrics and /debug/atc through
// telemetry.Handler every few periods. Each scrape must show the
// present: every retained history within its cap, the dropped counters
// on /metrics equal to the snapshot's, each VM's slice gauge equal to
// the slice the fleet last committed, and the newest decision spans
// from the period just run; and the scrapes' allocations must not grow
// with the run.
func TestLongRunTelemetryReportsPresent(t *testing.T) {
	const nodes, periods, every = 4, 400, 25
	opts := telemetry.Options{SeriesCap: 64, SpanCap: 256, RecordCap: 256}
	plane := telemetry.New(opts)
	sb, err := NewSimBackend(SimBackendConfig{Nodes: nodes, Hollow: true, MaxPeriods: periods, Telemetry: plane})
	if err != nil {
		t.Fatal(err)
	}
	sb.World.SetRecording(plane)
	f := NewFleet(core.DefaultConfig(), sb, sb, FleetOptions{Node: DefaultOptions(), MaxNodes: nodes})
	defer f.Close()
	f.SetTelemetry(plane.Global(), sb.Now)
	h := telemetry.Handler(plane, nil)

	var metricsAllocs, debugAllocs []uint64
	var snap telemetry.Snapshot
	for p := 1; p <= periods; p++ {
		start := sb.Now()
		if err := f.Step(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if p%every != 0 {
			continue
		}
		body, ma := get(t, h, "/metrics")
		metrics := exposition(t, body)
		raw, da := get(t, h, "/debug/atc")
		var dbg struct {
			Snapshot telemetry.Snapshot `json:"snapshot"`
		}
		if err := json.Unmarshal([]byte(raw), &dbg); err != nil {
			t.Fatalf("period %d: /debug/atc is not JSON: %v", p, err)
		}
		snap = dbg.Snapshot
		metricsAllocs, debugAllocs = append(metricsAllocs, ma), append(debugAllocs, da)

		// Every retained history stays within its cap: series per
		// series, spans and records per registry (the fleet's decision
		// spans live in the global registry).
		for _, s := range snap.Series {
			if len(s.Points) > opts.SeriesCap {
				t.Fatalf("period %d: series %s%+v holds %d points, cap %d", p, s.Name, s.Label, len(s.Points), opts.SeriesCap)
			}
		}
		spans, records := map[int]int{}, map[int]int{}
		for _, s := range snap.Spans {
			reg := s.Node
			if s.Track == "daemon" || s.Node < 0 {
				reg = -1
			}
			spans[reg]++
		}
		for _, e := range snap.Records {
			records[e.Node]++
		}
		for reg := -1; reg < nodes; reg++ {
			if spans[reg] > opts.SpanCap || records[reg] > opts.RecordCap {
				t.Fatalf("period %d: registry %d holds %d spans and %d records, caps %d and %d", p, reg, spans[reg], records[reg], opts.SpanCap, opts.RecordCap)
			}
		}

		// The dropped counters agree with the snapshot.
		for name, want := range map[string]uint64{
			"atc_telemetry_dropped_points_total":  snap.DroppedPoints,
			"atc_telemetry_dropped_spans_total":   snap.DroppedSpans,
			"atc_telemetry_dropped_records_total": snap.DroppedRecords,
		} {
			if got, ok := metrics[name]; !ok || got != float64(want) {
				t.Fatalf("period %d: /metrics %s = %v (present %v), snapshot %d", p, name, got, ok, want)
			}
		}

		// Each VM's slice gauge is the slice the fleet last committed.
		vms := 0
		for _, node := range f.Nodes() {
			for id, slice := range f.LastSlices(node) {
				vms++
				name := `atc_daemon_slice_ns_last{vm="vm` + strconv.Itoa(id) + `"}`
				if got, ok := metrics[name]; !ok || got != float64(slice) {
					t.Fatalf("period %d: %s = %v (present %v), fleet's last slice %v", p, name, got, ok, slice)
				}
			}
		}
		if vms == 0 {
			t.Fatalf("period %d: the fleet has committed no slices", p)
		}

		// The newest decision spans are the period just run, one per node.
		var newest []telemetry.Span
		for _, s := range snap.Spans {
			if s.Name == "decision" {
				if len(newest) > 0 && s.Start > newest[0].Start {
					newest = newest[:0]
				}
				newest = append(newest, s)
			}
		}
		if len(newest) != nodes || newest[0].Start != start || newest[0].End != sb.Now() {
			t.Fatalf("period %d (%v to %v): newest decision spans %+v, want one per node from the period just run", p, start, sb.Now(), newest)
		}
	}

	// The run passed every cap several times.
	if snap.DroppedPoints == 0 || snap.DroppedSpans < 3*uint64(opts.SpanCap) || snap.DroppedRecords < 3*uint64(opts.RecordCap) {
		t.Fatalf("caps barely passed: dropped %d points, %d spans, %d records", snap.DroppedPoints, snap.DroppedSpans, snap.DroppedRecords)
	}
	// Once every history is at its cap (a third of the way in), a
	// scrape allocates no more late in the run than early.
	for _, a := range []struct {
		path   string
		allocs []uint64
	}{{"/metrics", metricsAllocs}, {"/debug/atc", debugAllocs}} {
		first := a.allocs[len(a.allocs)/3]
		for i, n := range a.allocs[len(a.allocs)/3:] {
			if n > first+first/20 {
				t.Errorf("%s scrape %d allocates %d times, scrape %d only %d", a.path, len(a.allocs)/3+i, n, len(a.allocs)/3, first)
			}
		}
	}
}
