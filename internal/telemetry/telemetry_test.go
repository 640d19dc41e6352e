package telemetry

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
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
		p := New(Options{HistBounds: bounds})
		p.Node(0)
		if got := len(p.Snapshot().Histograms); got != 0 {
			t.Fatalf("unobserved histogram materialized: %d entries", got)
		}
	})

	t.Run("single-observation", func(t *testing.T) {
		p := New(Options{HistBounds: bounds})
		r := p.Node(0)
		r.Observe("lat", lab, 5*sim.Millisecond)
		h := p.Snapshot().Histograms[0]
		if h.Count != 1 || h.Sum != 5*sim.Millisecond {
			t.Fatalf("count=%d sum=%v, want 1, 5ms", h.Count, h.Sum)
		}
		if want := []uint64{0, 1}; h.Counts[0] != want[0] || h.Counts[1] != want[1] {
			t.Fatalf("cumulative counts %v, want %v", h.Counts, want)
		}
	})

	t.Run("boundary-inclusive", func(t *testing.T) {
		// d <= bound lands in the bound's bucket (Prometheus le semantics).
		p := New(Options{HistBounds: bounds})
		r := p.Node(0)
		r.Observe("lat", lab, sim.Millisecond)
		h := p.Snapshot().Histograms[0]
		if h.Counts[0] != 1 {
			t.Fatalf("exact-boundary observation missed first bucket: %v", h.Counts)
		}
	})

	t.Run("below-first-and-above-last", func(t *testing.T) {
		p := New(Options{HistBounds: bounds})
		r := p.Node(0)
		r.Observe("lat", lab, 0)            // below the first bound
		r.Observe("lat", lab, 5*sim.Second) // above the last bound (+Inf bucket)
		h := p.Snapshot().Histograms[0]
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

// TestSeriesCap checks the series retention rule after every publish:
// the snapshot shows exactly the newest SeriesCap points and counts
// every older one as dropped, while the history itself never holds
// more than the cap plus its slack.
func TestSeriesCap(t *testing.T) {
	const seriesCap = 8
	p := New(Options{SeriesCap: seriesCap})
	lab := Label{Node: 1, VM: "vm0"}
	for i := 0; i < 40; i++ {
		p.Node(1).Point("m", lab, sim.Time(i), float64(10*i))
		snap := p.Snapshot()
		kept := min(i+1, seriesCap)
		want := make([]Point, 0, kept)
		for k := i + 1 - kept; k <= i; k++ {
			want = append(want, Point{T: sim.Time(k), V: float64(10 * k)})
		}
		if got := snap.Series[0].Points; !reflect.DeepEqual(got, want) || snap.DroppedPoints != uint64(i+1-kept) {
			t.Fatalf("after %d points: snapshot holds %v with %d dropped, want %v with %d", i+1, got, snap.DroppedPoints, want, i+1-kept)
		}
		if held := len(p.Node(1).series[key{"m", lab}].points); held > seriesCap+seriesCap/4 {
			t.Fatalf("after %d points the history holds %d, more than the cap %d plus its slack", i+1, held, seriesCap)
		}
	}
}

// TestMetricsReportPresentPastSeriesCap checks that /metrics reports a
// series' newest point and what the cap evicted once its history is
// full, and that the full snapshot keeps the newest points.
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
	for _, want := range []string{
		`atc_slice_ns_last{node="0",vm="vm0"} 109` + "\n",
		"atc_telemetry_dropped_points_total 6\n",
		"atc_telemetry_dropped_spans_total 0\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	snap := p.Snapshot()
	want := []Point{{6, 106}, {7, 107}, {8, 108}, {9, 109}}
	if !reflect.DeepEqual(snap.Series[0].Points, want) || snap.DroppedPoints != 6 {
		t.Fatalf("snapshot holds %+v with %d dropped, want t=6..9 with 6 dropped", snap.Series[0].Points, snap.DroppedPoints)
	}
}

// TestSpanCap checks the span retention rule: a registry keeps the
// SpanCap spans last in (start, node) order, ties in publish order,
// whatever order they were published in, and counts the rest.
func TestSpanCap(t *testing.T) {
	p := New(Options{SpanCap: 4})
	r := p.Node(0)
	// Value numbers the spans in publish order; two pairs tie on start.
	for i, start := range []sim.Time{5, 1, 7, 3, 9, 7, 0, 8, 2, 9} {
		r.AddSpan(Span{Name: "spin", Track: "vm0/0", Start: start, End: start + 1, Value: sim.Time(i)})
		if len(r.spans) > 5 {
			t.Fatalf("after %d spans the registry holds %d, more than the cap 4 plus its slack 1", i+1, len(r.spans))
		}
	}
	snap := p.Snapshot()
	var got []string
	for _, s := range snap.Spans {
		got = append(got, fmt.Sprintf("%d#%d", s.Start, s.Value))
	}
	if want := []string{"7#5", "8#7", "9#4", "9#9"}; !slices.Equal(got, want) || snap.DroppedSpans != 6 {
		t.Fatalf("retained spans %v with %d dropped, want %v with 6", got, snap.DroppedSpans, want)
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
	p := New(Options{HistBounds: []sim.Time{sim.Millisecond}})
	r := p.Node(0)
	r.Add("sched_dispatches", Label{Node: 0}, 7)
	r.SetGauge("vm_run_time_ns", Label{Node: 0, VM: "vm1"}, 42)
	r.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm1"}, 10, 1.5)
	r.Point("vm_spin_latency_ns", Label{Node: 0, VM: "vm1"}, 20, 2.5)
	r.Observe("spin_latency", Label{Node: 0, VM: "vm1"}, 500*sim.Microsecond)

	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	if err := WritePrometheus(bw, p.Snapshot()); err != nil {
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

// TestTrimsDuringScrapes publishes at least 20,000 points, spans and
// records into three node registries and the global one past small
// caps, so that every history is trimmed thousands
// of times, while one goroutine takes full snapshots and another
// metrics views, until each has finished a few dozen mid-run (run under
// -race: a trim that wrote into the array a snapshot still reads would
// be reported). Every mid-run snapshot must stay within the caps, and
// the final one must hold exactly the newest of each history.
func TestTrimsDuringScrapes(t *testing.T) {
	const regs, minPublished, minScrapes = 4, 20000, 30
	opts := Options{SeriesCap: 4, SpanCap: 8, RecordCap: 8}
	p := New(opts)
	within := func(snap Snapshot) bool {
		spans, records := map[int]int{}, map[int]int{}
		for _, s := range snap.Spans {
			spans[s.Node]++
		}
		for _, e := range snap.Records {
			records[e.Node]++
		}
		for i := 0; i < regs; i++ {
			if spans[i] > opts.SpanCap || records[i] > opts.RecordCap {
				return false
			}
		}
		for _, s := range snap.Series {
			if len(s.Points) > opts.SeriesCap {
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	var snaps, views atomic.Int64
	var wg sync.WaitGroup
	for _, full := range []bool{true, false} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if full {
					if snap := p.Snapshot(); !within(snap) || !slices.IsSortedFunc(snap.Spans, compareSpans) {
						t.Error("mid-run snapshot over its caps or out of order")
					}
					snaps.Add(1)
				} else {
					if m := p.Metrics(); len(m.Series) > regs {
						t.Errorf("metrics view holds %d series, want at most %d", len(m.Series), regs)
					}
					views.Add(1)
				}
			}
		}()
	}
	logs := make([][]Span, regs)
	n := 0
	for n < minPublished || snaps.Load() < minScrapes || views.Load() < minScrapes {
		for i := 0; i < regs; i, n = i+1, n+1 {
			// The global registry is the one a full snapshot locks last,
			// so nothing orders a trim there after the snapshot's reads.
			r := p.Global()
			if i < regs-1 {
				r = p.Node(i)
			}
			// Starts wander back and forth, so trims must reorder spans.
			s := Span{Name: "spin", Node: i, Start: sim.Time(n/regs + 7*(n%5)), Value: sim.Time(n)}
			r.AddSpan(s)
			logs[i] = append(logs[i], s)
			r.Record(SchedEvent{At: sim.Time(n), Node: i, VCPU: n})
			r.Point("slice_ns", Label{Node: i}, sim.Time(n), float64(n))
		}
	}
	close(done)
	wg.Wait()

	snap := p.Snapshot()
	evicted := func(c int) uint64 { return uint64(n - regs*c) }
	var spans []Span
	for _, log := range logs {
		slices.SortStableFunc(log, compareSpans)
		spans = append(spans, log[len(log)-opts.SpanCap:]...)
	}
	slices.SortStableFunc(spans, compareSpans)
	if !reflect.DeepEqual(snap.Spans, spans) || snap.DroppedSpans != evicted(opts.SpanCap) {
		t.Errorf("final snapshot keeps spans %v (%d dropped), want %v (%d)", snap.Spans, snap.DroppedSpans, spans, evicted(opts.SpanCap))
	}
	for _, e := range snap.Records {
		if e.VCPU < n-regs*opts.RecordCap {
			t.Fatalf("final snapshot keeps record %d, older than the newest %d per registry", e.VCPU, opts.RecordCap)
		}
	}
	if len(snap.Records) != regs*opts.RecordCap || snap.DroppedRecords != evicted(opts.RecordCap) {
		t.Errorf("final snapshot keeps %d records (%d dropped), want %d (%d)", len(snap.Records), snap.DroppedRecords, regs*opts.RecordCap, evicted(opts.RecordCap))
	}
	for i, s := range snap.Series {
		var want []Point
		for k := n - regs*opts.SeriesCap + i; k < n; k += regs {
			want = append(want, Point{T: sim.Time(k), V: float64(k)})
		}
		if !reflect.DeepEqual(s.Points, want) {
			t.Errorf("node %d series keeps %v, want %v", i, s.Points, want)
		}
	}
	if snap.DroppedPoints != evicted(opts.SeriesCap) {
		t.Errorf("final snapshot drops %d points, want %d", snap.DroppedPoints, evicted(opts.SeriesCap))
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
