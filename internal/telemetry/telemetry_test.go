package telemetry

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"atcsched/internal/sim"
)

// TestHistogramEdgeCases pins the small-n behavior: no observations, a
// single observation, and observations below the first and above the
// last bound.
func TestHistogramEdgeCases(t *testing.T) {
	bounds := []sim.Time{sim.Millisecond, 10 * sim.Millisecond}
	lab := Label{Node: 0}

	t.Run("zero-observations", func(t *testing.T) {
		r := NewRegistry(Options{HistBounds: bounds})
		if got := len(r.Snapshot().Histograms); got != 0 {
			t.Fatalf("unobserved histogram materialized: %d entries", got)
		}
	})

	t.Run("single-observation", func(t *testing.T) {
		r := NewRegistry(Options{HistBounds: bounds})
		r.Observe("lat", lab, 5*sim.Millisecond)
		h := r.Snapshot().Histograms[0]
		if h.Count != 1 || h.Sum != 5*sim.Millisecond {
			t.Fatalf("count=%d sum=%v, want 1, 5ms", h.Count, h.Sum)
		}
		if want := []uint64{0, 1}; h.Counts[0] != want[0] || h.Counts[1] != want[1] {
			t.Fatalf("cumulative counts %v, want %v", h.Counts, want)
		}
	})

	t.Run("boundary-inclusive", func(t *testing.T) {
		// d <= bound lands in the bound's bucket (Prometheus le semantics).
		r := NewRegistry(Options{HistBounds: bounds})
		r.Observe("lat", lab, sim.Millisecond)
		h := r.Snapshot().Histograms[0]
		if h.Counts[0] != 1 {
			t.Fatalf("exact-boundary observation missed first bucket: %v", h.Counts)
		}
	})

	t.Run("below-first-and-above-last", func(t *testing.T) {
		r := NewRegistry(Options{HistBounds: bounds})
		r.Observe("lat", lab, 0)            // below the first bound
		r.Observe("lat", lab, 5*sim.Second) // above the last bound (+Inf bucket)
		h := r.Snapshot().Histograms[0]
		if h.Count != 2 {
			t.Fatalf("count=%d, want 2", h.Count)
		}
		if h.Counts[0] != 1 || h.Counts[1] != 1 {
			t.Fatalf("cumulative counts %v, want [1 1]", h.Counts)
		}
		// +Inf observations are Count - last cumulative bound count.
		if inf := h.Count - h.Counts[len(h.Counts)-1]; inf != 1 {
			t.Fatalf("+Inf bucket holds %d, want 1", inf)
		}
	})
}

// TestSeriesCap proves the series keeps a deterministic prefix and
// counts what it dropped.
func TestSeriesCap(t *testing.T) {
	r := NewRegistry(Options{SeriesCap: 3})
	lab := Label{Node: 1, VM: "vm0"}
	for i := 0; i < 5; i++ {
		r.Point("m", lab, sim.Time(i), float64(i))
	}
	snap := r.Snapshot()
	s := snap.Series[0]
	if len(s.Points) != 3 {
		t.Fatalf("retained %d points, want 3", len(s.Points))
	}
	for i, p := range s.Points {
		if p.T != sim.Time(i) || p.V != float64(i) {
			t.Fatalf("point %d is %+v, want t=%d v=%d (prefix, not eviction)", i, p, i, i)
		}
	}
	if snap.DroppedPoints != 2 {
		t.Fatalf("droppedPoints=%d, want 2", snap.DroppedPoints)
	}
}

// TestMetricsReportPresentPastSeriesCap checks that /metrics reports a
// series' newest point even once its history is full, while the full
// snapshot keeps the retained prefix.
func TestMetricsReportPresentPastSeriesCap(t *testing.T) {
	p := New(Options{SeriesCap: 4})
	lab := Label{Node: 0, VM: "vm0"}
	for i := 0; i < 10; i++ {
		p.Node(0).Point("slice_ns", lab, sim.Time(i), float64(100+i))
	}
	m := p.Metrics()
	if pts := m.Series[0].Points; len(pts) != 1 || pts[0] != (Point{T: 9, V: 109}) {
		t.Fatalf("metrics view shows %+v, want the newest point t=9", pts)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WritePrometheus(bw, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `atc_slice_ns_last{node="0",vm="vm0"} 109`+"\n") {
		t.Errorf("exposition does not report the newest point:\n%s", buf.String())
	}
	snap := p.Snapshot()
	want := []Point{{0, 100}, {1, 101}, {2, 102}, {3, 103}}
	if !reflect.DeepEqual(snap.Series[0].Points, want) || snap.DroppedPoints != 6 {
		t.Fatalf("snapshot holds %+v with %d dropped, want t=0..3 with 6 dropped", snap.Series[0].Points, snap.DroppedPoints)
	}
}

// TestSpanCap mirrors the series-cap contract for spans.
func TestSpanCap(t *testing.T) {
	r := NewRegistry(Options{SpanCap: 2})
	for i := 0; i < 4; i++ {
		r.AddSpan(Span{Name: "spin", Track: "vm0/0", Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 2 || snap.DroppedSpans != 2 {
		t.Fatalf("spans=%d dropped=%d, want 2, 2", len(snap.Spans), snap.DroppedSpans)
	}
	if snap.Spans[0].Start != 0 || snap.Spans[1].Start != 1 {
		t.Fatalf("retained spans are not the deterministic prefix: %+v", snap.Spans)
	}
}

// TestSnapshotOrdering proves the plane's merged snapshot sorts every
// section canonically regardless of publish order.
func TestSnapshotOrdering(t *testing.T) {
	p := New(Options{})
	// Publish deliberately out of order, across registries.
	p.Node(1).Add("b_count", Label{Node: 1}, 2)
	p.Node(0).Add("b_count", Label{Node: 0}, 1)
	p.Global().Add("a_count", GlobalLabel(), 3)
	p.Node(1).Point("ser", Label{Node: 1, VM: "z"}, 5, 1)
	p.Node(1).Point("ser", Label{Node: 1, VM: "a"}, 5, 2)
	p.Node(1).AddSpan(Span{Name: "s", Track: "t", Node: 1, Start: 20, End: 30})
	p.Node(0).AddSpan(Span{Name: "s", Track: "t", Node: 0, Start: 10, End: 15})
	snap := p.Snapshot()

	wantCounters := []struct {
		name string
		node int
	}{{"a_count", -1}, {"b_count", 0}, {"b_count", 1}}
	for i, w := range wantCounters {
		c := snap.Counters[i]
		if c.Name != w.name || c.Node != w.node {
			t.Fatalf("counter %d is (%s,%d), want (%s,%d)", i, c.Name, c.Node, w.name, w.node)
		}
	}
	if snap.Series[0].VM != "a" || snap.Series[1].VM != "z" {
		t.Fatalf("series not sorted by vm: %q then %q", snap.Series[0].VM, snap.Series[1].VM)
	}
	if snap.Spans[0].Start != 10 || snap.Spans[1].Start != 20 {
		t.Fatalf("spans not sorted by start: %+v", snap.Spans)
	}
}

// TestNodeRegistryGrowth proves Node(i) lazily grows and is stable.
func TestNodeRegistryGrowth(t *testing.T) {
	p := New(Options{})
	r3 := p.Node(3)
	if p.Node(3) != r3 {
		t.Fatal("Node(3) not stable across calls")
	}
	if p.Node(0) == r3 {
		t.Fatal("distinct nodes share a registry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative node index did not panic")
		}
	}()
	p.Node(-1)
}

// TestPrometheusExposition spot-checks the text exposition shapes.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(Options{HistBounds: []sim.Time{sim.Millisecond}})
	r.Add("sched_dispatches", Label{Node: 0}, 7)
	r.SetGauge("vm_run_time_ns", Label{Node: 0, VM: "vm1"}, 42)
	r.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm1"}, 10, 1.5)
	r.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm1"}, 20, 2.5)
	r.Observe("spin_latency", Label{Node: 0, VM: "vm1"}, 500*sim.Microsecond)

	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	if err := WritePrometheus(bw, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE atc_sched_dispatches_total counter",
		`atc_sched_dispatches_total{node="0"} 7`,
		`atc_vm_run_time_ns{node="0",vm="vm1"} 42`,
		`atc_vm_spin_latency_ns_last{node="0",vm="vm1"} 2.5`, // last sample wins
		`atc_spin_latency_bucket{node="0",vm="vm1",le="0.001"} 1`,
		`atc_spin_latency_bucket{node="0",vm="vm1",le="+Inf"} 1`,
		`atc_spin_latency_sum{node="0",vm="vm1"} 0.0005`,
		`atc_spin_latency_count{node="0",vm="vm1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestHandler drives the HTTP surface through httptest.
func TestHandler(t *testing.T) {
	p := New(Options{})
	p.Global().Add("daemon_decision_apply", GlobalLabel(), 3)
	h := Handler(p, func() map[string]any { return map[string]any{"steps": 12} })
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "atc_daemon_decision_apply_total 3") {
		t.Fatalf("/metrics missing decision counter:\n%s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/atc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg struct {
		Summary  map[string]any `json:"summary"`
		Snapshot Snapshot       `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatalf("/debug/atc is not JSON: %v", err)
	}
	if dbg.Summary["steps"] != float64(12) {
		t.Fatalf("summary fn not merged: %v", dbg.Summary)
	}
	if len(dbg.Snapshot.Counters) != 1 {
		t.Fatalf("snapshot lost counters: %+v", dbg.Snapshot)
	}
}

// scrapePlane builds a plane with the same metrics on 8 nodes for any
// amount of history: spans spread over the node registries and the
// global one, and points per series.
func scrapePlane(spans, points int) *Plane {
	p := New(Options{})
	for i := 0; i < 8; i++ {
		r := p.Node(i)
		r.Add("sched_dispatches", Label{Node: i}, uint64(i))
		for _, vm := range []string{"vm0", "vm1"} {
			lab := Label{Node: i, VM: vm}
			r.SetGauge("vm_run_time_ns", lab, 1e6)
			r.Observe("spin_latency", lab, sim.Millisecond)
			for k := 0; k < points; k++ {
				r.Point("vm_slice_ns", lab, sim.Time(k)*sim.Millisecond, float64(k))
			}
		}
	}
	for k := 0; k < spans; k++ {
		r := p.Global()
		if k%9 != 8 {
			r = p.Node(k % 9)
		}
		r.AddSpan(Span{Name: "spin", Track: "vm0/0", Node: k % 9, Start: sim.Time(k%1000) * sim.Microsecond})
	}
	return p
}

// metricsAlloc returns the mean bytes allocated by one /metrics request.
func metricsAlloc(p *Plane) uint64 {
	h := Handler(p, nil)
	req := httptest.NewRequest("GET", "/metrics", nil)
	h.ServeHTTP(httptest.NewRecorder(), req) // warm up
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestMetricsCostIndependentOfHistory checks that a /metrics request
// allocates the same, within a small constant, for a plane holding no
// spans and one point per series as for one holding 50,000 spans and
// 500 points per series: the view copies neither.
func TestMetricsCostIndependentOfHistory(t *testing.T) {
	empty, long := scrapePlane(0, 1), scrapePlane(50000, 500)
	if got := len(long.Snapshot().Spans); got != 50000 {
		t.Fatalf("long plane holds %d spans, want 50000", got)
	}
	a, b := metricsAlloc(empty), metricsAlloc(long)
	const slack = 1024
	if b > a+slack || a > b+slack {
		t.Fatalf("/metrics allocates %d B with no history and %d B with 50,000 spans and 500 points per series; want equal within %d B", a, b, slack)
	}
}

// TestConcurrentScrapes runs two scrapers, Plane.Snapshot and the HTTP
// handler (alternating /metrics and /debug/atc, so two full snapshots
// can overlap), against a publisher that keeps adding spans, records,
// points and counts until each scraper has finished a few scrapes
// mid-run (run under -race), and checks the final snapshot holds every
// span and record in order.
func TestConcurrentScrapes(t *testing.T) {
	p := New(Options{})
	h := Handler(p, nil)
	const nodes, minRounds, minScrapes = 4, 2000, 5
	done := make(chan struct{})
	var snaps, gets atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if snap := p.Snapshot(); !slices.IsSortedFunc(snap.Spans, compareSpans) || !recordsSorted(snap.Records) {
				t.Error("mid-run snapshot spans or records out of order")
			}
			snaps.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			path := "/metrics"
			if i%2 == 1 {
				path = "/debug/atc"
			}
			rec := httptest.NewRecorder()
			if h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil)); rec.Code != 200 {
				t.Errorf("%s status %d", path, rec.Code)
			}
			gets.Add(1)
		}
	}()
	k := 0
	for ; k < minRounds || snaps.Load() < minScrapes || gets.Load() < minScrapes; k++ {
		n := k % (nodes + 1)
		r := p.Global()
		if n < nodes {
			r = p.Node(n)
		}
		lab := Label{Node: n}
		r.AddSpan(Span{Name: "spin", Node: n, Start: sim.Time(k % 97)})
		r.Record(SchedEvent{At: sim.Time(k), Node: n})
		r.Point("slice_ns", lab, sim.Time(k), float64(k))
		r.Add("spins", lab, 1)
	}
	close(done)
	wg.Wait()
	snap := p.Snapshot()
	if held := len(snap.Spans) + int(snap.DroppedSpans); held != k || !slices.IsSortedFunc(snap.Spans, compareSpans) {
		t.Fatalf("final snapshot accounts for %d spans (want %d), sorted %v", held, k, slices.IsSortedFunc(snap.Spans, compareSpans))
	}
	if held := len(snap.Records) + int(snap.DroppedRecords); held != k || !recordsSorted(snap.Records) {
		t.Fatalf("final snapshot accounts for %d records (want %d), sorted %v", held, k, recordsSorted(snap.Records))
	}
}

// recordsSorted reports whether records are in (time, node) order.
func recordsSorted(records []SchedEvent) bool {
	return slices.IsSortedFunc(records, func(a, b SchedEvent) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// TestMetricsRenderAllocs bounds what one /metrics request allocates
// in this package, Plane.Metrics plus WritePrometheus, over the 8-node
// plane. Sample names are built in one reused buffer, and a registry's
// histograms share one bound ladder and one backing array of counts,
// so the count grows with registries and metric families, not with
// samples.
func TestMetricsRenderAllocs(t *testing.T) {
	p := scrapePlane(1000, 10)
	w := bufio.NewWriter(io.Discard)
	got := testing.AllocsPerRun(20, func() {
		if err := WritePrometheus(w, p.Metrics()); err != nil {
			t.Fatal(err)
		}
	})
	if got > 52 {
		t.Errorf("a /metrics render makes %v allocations, want ≤ 52", got)
	}
}
