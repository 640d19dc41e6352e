// Package telemetry is the simulator's sim-time observability plane: a
// metric registry (counters, gauges, time series, sim-clock histograms)
// plus span tracking for spin episodes, BSP rounds, and controller
// decision cycles, and the scheduling record stream (dispatch, preempt,
// block, wake, slice and swap records), with exporters for
// Chrome/Perfetto trace-event JSON, JSONL time series, record text and
// CSV, and Prometheus-style text exposition.
//
// The plane is strictly off the determinism path: every publish site in
// the simulator is guarded by a nil check, sampling reads lifetime
// counters without consuming the scheduler-facing period accumulators,
// and a world gives every node its own Registry so shards never contend
// on shared state.
// Enabling telemetry must never change a run's fingerprint — the
// proptest battery enforces byte-identical results telemetry-on vs
// telemetry-off at every shard count.
//
// One retention rule bounds a registry's memory: a series' points, a
// registry's spans and its scheduling records each keep their newest N
// (spans by their canonical order), and what they evict is counted. A
// history may outgrow N by a quarter of N before a trim cuts it back in
// a fresh array; a snapshot shows the newest N, so what it shows follows
// from the publish stream alone.
//
// Registries serialize their own access with a mutex so a live HTTP
// scrape (cmd/atcd) can snapshot mid-run; within the simulator each
// registry is only ever written from one engine goroutine, so the lock
// is uncontended on the hot path.
//
// A snapshot's cost follows what it exports. A full Snapshot keeps
// every registry's spans in canonical order as it goes: each registry
// sorts only the spans published since its last snapshot and merges
// them into its already sorted prefix in place, and the plane merges
// the per-registry runs into one exactly sized slice in linear time
// (times log of the registry count). Metrics, the /metrics view, copies
// no spans and no series history at all.
//
// Locking rule: a registry's span order is rewritten in place only by a
// full snapshot holding its plane's snapshot mutex and the registry's
// own mutex, in that order. A publisher, under the registry mutex, only
// appends past the end of a history or swaps in a trimmed fresh array,
// never writing into the old one, so a snapshot that still holds the
// snapshot mutex may read a registry's spans and records after
// releasing the registry mutex.
package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"atcsched/internal/sim"
)

// Label scopes a metric to a node and/or a VM. Node -1 means "not
// node-scoped" (global/daemon metrics).
type Label struct {
	Node int    `json:"node"`
	VM   string `json:"vm,omitempty"`
}

// GlobalLabel is the label of node-agnostic metrics.
func GlobalLabel() Label { return Label{Node: -1} }

// key identifies one metric instance inside a registry.
type key struct {
	name string
	lab  Label
}

// Span is one completed interval on the sim clock: a spin episode, a
// BSP round, a controller decision cycle, or a fault window.
type Span struct {
	// Name classifies the span ("spin", "round", "decision", "fault:...").
	Name string `json:"name"`
	// Track groups spans onto one timeline row (a VM name, "daemon", ...).
	Track string   `json:"track"`
	Node  int      `json:"node"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	// Value carries span-specific payload (the spin latency, the slice in
	// force, the round index).
	Value sim.Time `json:"value,omitempty"`
}

// Point is one time-series sample.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// Counter is a monotonically advancing count in a Snapshot.
type Counter struct {
	Name string `json:"name"`
	Label
	Value uint64 `json:"value"`
}

// Gauge is a point-in-time value in a Snapshot.
type Gauge struct {
	Name string `json:"name"`
	Label
	Value float64 `json:"value"`
}

// Series is one metric instance's retained samples in a Snapshot.
type Series struct {
	Name string `json:"name"`
	Label
	Points []Point `json:"points"`
}

// Histogram is a cumulative sim-duration histogram in a Snapshot.
// Counts[i] counts observations <= Bounds[i]; the implicit final bucket
// (+Inf) is Count minus the last cumulative bound count. Bounds is
// shared with the snapshot's other histograms from the same registry,
// so it is read-only.
type Histogram struct {
	Name string `json:"name"`
	Label
	Bounds []sim.Time `json:"bounds"`
	Counts []uint64   `json:"counts"` // cumulative, len == len(Bounds)
	Count  uint64     `json:"count"`
	Sum    sim.Time   `json:"sum"`
}

// Quantile estimates the q-quantile (clamped to [0,1]) from the
// cumulative bucket counts, interpolating linearly within the winning
// bucket — the Prometheus histogram_quantile estimator. Observations
// beyond the last bound clamp to it; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var prevCum uint64
	var lo sim.Time
	for i, cum := range h.Counts {
		if float64(cum) >= target {
			in := cum - prevCum
			hi := h.Bounds[i]
			if in == 0 {
				return hi
			}
			frac := (target - float64(prevCum)) / float64(in)
			return lo + sim.Time(frac*float64(hi-lo))
		}
		prevCum = cum
		lo = h.Bounds[i]
	}
	return h.Bounds[len(h.Bounds)-1]
}

// DefaultBounds is the sim-latency bucket ladder: wide enough for
// microsecond spin episodes through multi-second stalls.
func DefaultBounds() []sim.Time {
	return []sim.Time{
		1 * sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond,
		300 * sim.Microsecond, 1 * sim.Millisecond, 3 * sim.Millisecond,
		10 * sim.Millisecond, 30 * sim.Millisecond, 100 * sim.Millisecond,
		300 * sim.Millisecond, 1 * sim.Second, 10 * sim.Second,
	}
}

// Options bound a Registry's memory; each cap keeps the newest entries.
type Options struct {
	// SeriesCap bounds the points retained per series, the newest ones
	// (<= 0: default).
	SeriesCap int
	// SpanCap bounds the spans retained per registry, the ones last in
	// (start, node) order (<= 0: default).
	SpanCap int
	// RecordCap bounds the scheduling records retained per registry, the
	// newest ones (<= 0: default).
	RecordCap int
	// HistBounds overrides the histogram bucket ladder (nil: default).
	HistBounds []sim.Time
}

const (
	defaultSeriesCap = 1 << 16
	defaultSpanCap   = 1 << 16
	defaultRecordCap = 1 << 16
)

func (o Options) withDefaults() Options {
	if o.SeriesCap <= 0 {
		o.SeriesCap = defaultSeriesCap
	}
	if o.SpanCap <= 0 {
		o.SpanCap = defaultSpanCap
	}
	if o.RecordCap <= 0 {
		o.RecordCap = defaultRecordCap
	}
	if o.HistBounds == nil {
		o.HistBounds = DefaultBounds()
	}
	return o
}

// series is the mutable series state: its retained points, oldest
// first, and how many older ones trims evicted.
type series struct {
	points  []Point
	dropped uint64
}

// hist is the mutable histogram state (per-bucket counts, not yet
// cumulative; Snapshot renders the cumulative view).
type hist struct {
	counts []uint64 // len == len(bounds)+1; last is +Inf
	count  uint64
	sum    sim.Time
}

// Registry holds one publisher domain's metrics: one per node inside a
// World (so shards never share state) plus one global instance for the
// control daemon. All methods are safe for concurrent use; inside the
// simulator each registry is written from a single engine goroutine.
type Registry struct {
	mu       sync.Mutex
	opts     Options
	counters map[key]uint64
	gauges   map[key]float64
	series   map[key]*series
	hists    map[key]*hist
	spans    []Span
	// sorted counts the leading spans already in canonical order: the
	// ones the last full snapshot saw.
	sorted       int
	spansDropped uint64
	// records are the retained scheduling records, oldest first.
	records        []SchedEvent
	recordsDropped uint64
}

func newRegistry(opts Options) *Registry {
	return &Registry{
		opts:     opts,
		counters: make(map[key]uint64),
		gauges:   make(map[key]float64),
		series:   make(map[key]*series),
		hists:    make(map[key]*hist),
	}
}

// Add advances a counter by delta.
func (r *Registry) Add(name string, lab Label, delta uint64) {
	r.mu.Lock()
	r.counters[key{name, lab}] += delta
	r.mu.Unlock()
}

// SetCount sets a counter to an absolute value (finalization totals).
func (r *Registry) SetCount(name string, lab Label, v uint64) {
	r.mu.Lock()
	r.counters[key{name, lab}] = v
	r.mu.Unlock()
}

// SetGauge sets a gauge.
func (r *Registry) SetGauge(name string, lab Label, v float64) {
	r.mu.Lock()
	r.gauges[key{name, lab}] = v
	r.mu.Unlock()
}

// overCap reports whether a history of length l has outgrown its cap n
// by more than its slack, a quarter of the cap, and is due for a trim.
func overCap(l, n int) bool { return l > n+n/4 }

// keepNewest trims history h to its newest n entries, counting the
// evicted ones in dropped. The survivors go to a fresh array with room
// for the slack: a full snapshot may still be reading h's.
func keepNewest[T any](h []T, n int, dropped *uint64) []T {
	*dropped += uint64(len(h) - n)
	return append(make([]T, 0, n+n/4), h[len(h)-n:]...)
}

// excess is how many of l entries a snapshot omits to show the newest n.
func excess(l, n int) int { return max(l-n, 0) }

// Point appends one time-series sample; past the series cap and its
// slack the oldest points are evicted and counted.
func (r *Registry) Point(name string, lab Label, t sim.Time, v float64) {
	r.mu.Lock()
	k := key{name, lab}
	s := r.series[k]
	if s == nil {
		s = &series{}
		r.series[k] = s
	}
	if s.points = append(s.points, Point{T: t, V: v}); overCap(len(s.points), r.opts.SeriesCap) {
		s.points = keepNewest(s.points, r.opts.SeriesCap, &s.dropped)
	}
	r.mu.Unlock()
}

// Observe records one duration into a sim-clock histogram.
func (r *Registry) Observe(name string, lab Label, d sim.Time) {
	r.mu.Lock()
	k := key{name, lab}
	h := r.hists[k]
	if h == nil {
		h = &hist{counts: make([]uint64, len(r.opts.HistBounds)+1)}
		r.hists[k] = h
	}
	i := sort.Search(len(r.opts.HistBounds), func(i int) bool { return d <= r.opts.HistBounds[i] })
	h.counts[i]++
	h.count++
	h.sum += d
	r.mu.Unlock()
}

// AddSpan records one completed span. Past the span cap and its slack
// the spans are put in canonical order and the ones first in it are
// evicted and counted.
func (r *Registry) AddSpan(s Span) {
	r.mu.Lock()
	if r.spans = append(r.spans, s); overCap(len(r.spans), r.opts.SpanCap) {
		// Order a copy: a full snapshot may still be reading the old
		// array's sorted prefix.
		all := slices.Clone(r.spans)
		slices.SortStableFunc(all[r.sorted:], compareSpans)
		mergeInPlace(all, r.sorted)
		r.spans, r.sorted = keepNewest(all, r.opts.SpanCap, &r.spansDropped), r.opts.SpanCap
	}
	r.mu.Unlock()
}

// Snapshot captures everything the plane knows, deterministically
// ordered: counters, gauges, series, and histograms sorted by
// (name, node, vm); spans sorted by (start, node) and scheduling records
// by (time, node), ties in registry order (nodes ascending, then the
// global registry) and then in publish order (engine order) within a
// registry. Each history shows its newest cap entries; Dropped* count
// everything published and not shown.
type Snapshot struct {
	Counters       []Counter    `json:"counters"`
	Gauges         []Gauge      `json:"gauges"`
	Series         []Series     `json:"series"`
	Histograms     []Histogram  `json:"histograms"`
	Spans          []Span       `json:"spans"`
	Records        []SchedEvent `json:"records,omitempty"`
	DroppedPoints  uint64       `json:"droppedPoints,omitempty"`
	DroppedSpans   uint64       `json:"droppedSpans,omitempty"`
	DroppedRecords uint64       `json:"droppedRecords,omitempty"`
}

// metricsInto appends this registry's metrics and eviction counts to
// snap (the caller holds r.mu and sorts). With history each series
// carries its newest SeriesCap points; without, only its newest one,
// copied into one backing array per registry.
func (r *Registry) metricsInto(snap *Snapshot, history bool) {
	for k, v := range r.counters {
		snap.Counters = append(snap.Counters, Counter{Name: k.name, Label: k.lab, Value: v})
	}
	for k, v := range r.gauges {
		snap.Gauges = append(snap.Gauges, Gauge{Name: k.name, Label: k.lab, Value: v})
	}
	var last []Point
	if !history {
		last = make([]Point, 0, len(r.series))
	}
	for k, s := range r.series {
		old := excess(len(s.points), r.opts.SeriesCap)
		var pts []Point
		if history {
			pts = append([]Point(nil), s.points[old:]...)
		} else {
			last = append(last, s.points[len(s.points)-1])
			pts = last[len(last)-1 : len(last) : len(last)]
		}
		snap.Series = append(snap.Series, Series{Name: k.name, Label: k.lab, Points: pts})
		snap.DroppedPoints += s.dropped + uint64(old)
	}
	if len(r.hists) > 0 {
		// Every histogram shares one copy of the bound ladder, and the
		// cumulative counts are carved from one backing array.
		nb := len(r.opts.HistBounds)
		bounds := slices.Clip(slices.Clone(r.opts.HistBounds))
		counts := make([]uint64, len(r.hists)*nb)
		for k, h := range r.hists {
			out := Histogram{Name: k.name, Label: k.lab, Bounds: bounds, Counts: counts[:nb:nb], Count: h.count, Sum: h.sum}
			counts = counts[nb:]
			var cum uint64
			for i := range out.Counts {
				cum += h.counts[i]
				out.Counts[i] = cum
			}
			snap.Histograms = append(snap.Histograms, out)
		}
	}
	snap.DroppedSpans += r.spansDropped + uint64(excess(len(r.spans), r.opts.SpanCap))
	snap.DroppedRecords += r.recordsDropped + uint64(excess(len(r.records), r.opts.RecordCap))
}

// sortSpans brings r.spans into canonical order and returns them. The
// spans before r.sorted are in order already; only the ones published
// since are sorted, then merged into that prefix. The caller holds its
// plane's snapshot mutex and r.mu.
func (r *Registry) sortSpans() []Span {
	s, n := r.spans, r.sorted
	if n < len(s) {
		slices.SortStableFunc(s[n:], compareSpans)
		mergeInPlace(s, n)
		r.sorted = len(s)
	}
	return s
}

// mergeInPlace stably merges the sorted runs s[:n] and s[n:] (n <
// len(s)), the first run winning ties. Only the prefix spans that sort
// after s[n] move: they are copied aside and merged forward with the
// second run.
func mergeInPlace(s []Span, n int) {
	p := sort.Search(n, func(i int) bool { return compareSpans(s[i], s[n]) > 0 })
	if p == n {
		return
	}
	moved := append([]Span(nil), s[p:n]...)
	i, j, k := 0, n, p
	for i < len(moved) {
		if j < len(s) && compareSpans(s[j], moved[i]) < 0 {
			s[k] = s[j]
			j++
		} else {
			s[k] = moved[i]
			i++
		}
		k++
	}
}

// runHead is a run's entry in mergeRuns' heap: the sort key of the
// run's next element, and the run's index, which breaks ties.
type runHead struct {
	at   sim.Time
	node int
	run  int
}

func (a runHead) before(b runHead) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.run < b.run
}

// spanKey and recordKey are the (time, node) sort keys mergeRuns
// orders spans and scheduling records by.
func spanKey(s *Span) (sim.Time, int)         { return s.Start, s.Node }
func recordKey(e *SchedEvent) (sim.Time, int) { return e.At, e.Node }

// mergeRuns merges runs, each sorted by key, into one exactly sized
// slice, ties going to the earlier run: the stable sort of the runs'
// concatenation. It returns nil when every run is empty.
func mergeRuns[T any](runs [][]T, key func(*T) (sim.Time, int)) []T {
	total := 0
	heap := make([]runHead, 0, len(runs)) // runs with elements left, a min-heap
	for i, run := range runs {
		if len(run) > 0 {
			total += len(run)
			at, node := key(&run[0])
			heap = append(heap, runHead{at, node, i})
		}
	}
	if total == 0 {
		return nil
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && heap[l].before(heap[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && heap[r].before(heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]T, total)
	for k := range out {
		top := &heap[0]
		run := runs[top.run]
		out[k] = run[0]
		if run = run[1:]; len(run) > 0 {
			runs[top.run] = run
			top.at, top.node = key(&run[0])
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}

// snapshotOf renders regs in order. A full snapshot (the caller holds
// their snapshot mutex) copies the newest cap of every history; a
// metrics view copies each series' newest point and no spans or
// records.
func snapshotOf(regs []*Registry, full bool) Snapshot {
	var snap Snapshot
	var spans [][]Span
	var records [][]SchedEvent
	if full {
		spans = make([][]Span, len(regs))
		records = make([][]SchedEvent, len(regs))
	}
	for i, r := range regs {
		r.mu.Lock()
		r.metricsInto(&snap, full)
		if full {
			s := r.sortSpans()
			spans[i] = s[excess(len(s), r.opts.SpanCap):]
			records[i] = r.records[excess(len(r.records), r.opts.RecordCap):]
		}
		r.mu.Unlock()
	}
	sortMetrics(&snap)
	if full {
		snap.Spans = mergeRuns(spans, spanKey)
		snap.Records = mergeRuns(records, recordKey)
	}
	return snap
}

// Plane is a whole world's telemetry: one registry per node plus one
// global registry for node-agnostic publishers (the control daemon,
// shard sync stats, the network fabric). Attach to a world with
// vmm.World.SetTelemetry, and vmm.World.SetRecording for scheduling
// records, before Start.
type Plane struct {
	opts   Options
	mu     sync.Mutex
	snapMu sync.Mutex // the snapshot mutex of every registry below
	nodes  []*Registry
	global *Registry
}

// New builds a plane (zero Options select the defaults).
func New(opts Options) *Plane {
	p := &Plane{opts: opts.withDefaults()}
	p.global = newRegistry(p.opts)
	return p
}

// Node returns node i's registry, creating it (and any lower-indexed
// ones) on first use.
func (p *Plane) Node(i int) *Registry {
	if i < 0 {
		panic(fmt.Sprintf("telemetry: negative node index %d", i))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.nodes) <= i {
		p.nodes = append(p.nodes, newRegistry(p.opts))
	}
	return p.nodes[i]
}

// Global returns the node-agnostic registry.
func (p *Plane) Global() *Registry { return p.global }

// registries lists the node registries in index order, then the global
// one: the order spans tied on (start, node) keep.
func (p *Plane) registries() []*Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(append(make([]*Registry, 0, len(p.nodes)+1), p.nodes...), p.global)
}

// Snapshot merges every registry into one deterministically ordered
// view. Safe to call mid-run (each registry is locked briefly); full
// snapshots run one at a time.
func (p *Plane) Snapshot() Snapshot {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return snapshotOf(p.registries(), true)
}

// Metrics is the view /metrics renders: Snapshot's counters, gauges and
// histograms, each series with only its last point, and no spans. Its
// cost does not grow with span or series history, and it never waits
// for a full snapshot.
func (p *Plane) Metrics() Snapshot {
	return snapshotOf(p.registries(), false)
}

// compareKey orders metric instances by (name, node, vm).
func compareKey(an string, al Label, bn string, bl Label) int {
	if c := strings.Compare(an, bn); c != 0 {
		return c
	}
	if c := cmp.Compare(al.Node, bl.Node); c != 0 {
		return c
	}
	return strings.Compare(al.VM, bl.VM)
}

// compareSpans orders spans by (start, node).
func compareSpans(a, b Span) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// sortMetrics puts every metric section in its canonical order, by
// (name, label).
func sortMetrics(s *Snapshot) {
	slices.SortFunc(s.Counters, func(a, b Counter) int { return compareKey(a.Name, a.Label, b.Name, b.Label) })
	slices.SortFunc(s.Gauges, func(a, b Gauge) int { return compareKey(a.Name, a.Label, b.Name, b.Label) })
	slices.SortFunc(s.Series, func(a, b Series) int { return compareKey(a.Name, a.Label, b.Name, b.Label) })
	slices.SortFunc(s.Histograms, func(a, b Histogram) int { return compareKey(a.Name, a.Label, b.Name, b.Label) })
}
