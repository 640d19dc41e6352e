package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"atcsched/internal/rng"
	"atcsched/internal/sim"
)

// refSortSnapshot is the snapshot sort as it was written with the
// reflection-based sort package, kept as the oracle for the typed metric
// sorts and, applied to the concatenation of every registry's spans, for
// the span merge.
func refSortSnapshot(s *Snapshot) {
	less := func(an string, al Label, bn string, bl Label) bool {
		if an != bn {
			return an < bn
		}
		if al.Node != bl.Node {
			return al.Node < bl.Node
		}
		return al.VM < bl.VM
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return less(s.Counters[i].Name, s.Counters[i].Label, s.Counters[j].Name, s.Counters[j].Label)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return less(s.Gauges[i].Name, s.Gauges[i].Label, s.Gauges[j].Name, s.Gauges[j].Label)
	})
	sort.Slice(s.Series, func(i, j int) bool {
		return less(s.Series[i].Name, s.Series[i].Label, s.Series[j].Name, s.Series[j].Label)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return less(s.Histograms[i].Name, s.Histograms[i].Label, s.Histograms[j].Name, s.Histograms[j].Label)
	})
	sort.SliceStable(s.Spans, func(i, j int) bool {
		if s.Spans[i].Start != s.Spans[j].Start {
			return s.Spans[i].Start < s.Spans[j].Start
		}
		return s.Spans[i].Node < s.Spans[j].Node
	})
}

// randomSnapshot builds an unsorted snapshot: metric instances with
// distinct (name, label) keys in shuffled order.
func randomSnapshot(r *rng.Source) Snapshot {
	type key struct {
		name string
		lab  Label
	}
	var keys []key
	for _, name := range []string{"a", "b", "spin_latency", "node_wakes"} {
		for node := -1; node < 4; node++ {
			for _, vm := range []string{"", "vm0", "vm1", "vm10"} {
				keys = append(keys, key{name, Label{Node: node, VM: vm}})
			}
		}
	}
	var s Snapshot
	for i, j := range shuffled(r, len(keys)) {
		k := keys[j]
		switch i % 4 {
		case 0:
			s.Counters = append(s.Counters, Counter{Name: k.name, Label: k.lab, Value: uint64(i)})
		case 1:
			s.Gauges = append(s.Gauges, Gauge{Name: k.name, Label: k.lab, Value: float64(i)})
		case 2:
			s.Series = append(s.Series, Series{Name: k.name, Label: k.lab, Points: []Point{{T: sim.Time(i)}}})
		case 3:
			s.Histograms = append(s.Histograms, Histogram{Name: k.name, Label: k.lab, Count: uint64(i)})
		}
	}
	return s
}

// shuffled returns a random permutation of [0, n).
func shuffled(r *rng.Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestSortSnapshotMatchesReference checks that the typed sorts put every
// metric section in exactly the order the reflection-based oracle does.
func TestSortSnapshotMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		got := randomSnapshot(rng.New(seed))
		want := randomSnapshot(rng.New(seed))
		sortMetrics(&got)
		refSortSnapshot(&want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sortMetrics order differs from the reference", seed)
		}
	}
}

// spanStream publishes random spans into a plane and logs, per
// registry, every span it published in publish order: the input of the
// reference snapshot.
type spanStream struct {
	p     *Plane
	r     *rng.Source
	cap   int
	nodes int
	logs  [][]Span // per node registry, then the global one last
	seq   sim.Time
}

func newSpanStream(seed uint64, nodes, spanCap int) *spanStream {
	p := New(Options{SpanCap: spanCap})
	return &spanStream{p: p, r: rng.New(seed), cap: p.opts.SpanCap, nodes: nodes, logs: make([][]Span, nodes+1)}
}

// publish adds n spans, each to a random registry. Starts come from a
// few values so that many spans tie on (start, node), within a registry
// and across registries: the global registry's spans carry node ids as
// the daemon's decision spans do. Value numbers the spans in publish
// order, so tied spans stay tellable apart.
func (st *spanStream) publish(n int) {
	for ; n > 0; n-- {
		i := st.r.Intn(st.nodes + 1)
		s := Span{Name: "spin", Track: "vm0/0", Node: i, Start: sim.Time(st.r.Intn(12)) * sim.Microsecond, Value: st.seq}
		reg := st.p.Global()
		if i == st.nodes {
			s.Name, s.Track, s.Node = "decision", "daemon", st.r.Intn(st.nodes+1)-1
		} else {
			reg = st.p.Node(i)
		}
		s.End = s.Start + sim.Time(st.r.Intn(5))*sim.Microsecond
		st.seq++
		reg.AddSpan(s)
		st.logs[i] = append(st.logs[i], s)
	}
}

// want is the reference span section and its drop count: every
// registry's spans stable-sorted, the newest cap of each kept, then
// concatenated in registry order and stable-sorted again.
func (st *spanStream) want() ([]Span, uint64) {
	var snap Snapshot
	var dropped uint64
	for _, log := range st.logs {
		reg := Snapshot{Spans: append([]Span(nil), log...)}
		refSortSnapshot(&reg)
		if k := len(reg.Spans) - st.cap; k > 0 {
			reg.Spans, dropped = reg.Spans[k:], dropped+uint64(k)
		}
		snap.Spans = append(snap.Spans, reg.Spans...)
	}
	refSortSnapshot(&snap)
	return snap.Spans, dropped
}

// TestPlaneSnapshotMatchesConcatSort checks the incremental sort, the
// span trims and the k-way merge against the reference (per registry,
// stable sort and keep the newest cap; then concatenate and stable
// sort) over random span streams with snapshots interleaved between
// batches, with and without a span cap that evicts.
func TestPlaneSnapshotMatchesConcatSort(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		spanCap := 0
		if seed%4 == 0 {
			spanCap = 60
		}
		st := newSpanStream(seed, 1+int(seed%6), spanCap)
		for round := 0; round < 8; round++ {
			st.publish(st.r.Intn(120))
			if round%3 == 1 {
				continue // let two batches pile up unsorted
			}
			got := st.p.Snapshot()
			want, dropped := st.want()
			if !reflect.DeepEqual(got.Spans, want) || got.DroppedSpans != dropped {
				t.Fatalf("seed %d round %d: merged spans (%d dropped) differ from the reference (%d dropped)\ngot  %v\nwant %v",
					seed, round, got.DroppedSpans, dropped, got.Spans, want)
			}
		}
	}
}

// TestRetentionIgnoresSnapshots is the retention rule's determinism
// property: over random streams of points, spans and records, with caps
// small enough to trim many times, the final snapshot is the same
// whether or not snapshots and metrics views were taken along the way.
func TestRetentionIgnoresSnapshots(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		opts := Options{SeriesCap: 5, SpanCap: 12, RecordCap: 7}
		quiet, watched := New(opts), New(opts)
		r := rng.New(seed)
		nodes := 1 + int(seed%3)
		clock := make([]sim.Time, nodes)
		for i := 0; i < 600; i++ {
			n := r.Intn(nodes)
			clock[n] += sim.Time(r.Intn(3))
			lab := Label{Node: n, VM: fmt.Sprintf("vm%d", r.Intn(2))}
			span := Span{Name: "spin", Node: n, Start: sim.Time(r.Intn(40)), Value: sim.Time(i)}
			for _, p := range []*Plane{quiet, watched} {
				switch reg := p.Node(n); i % 3 {
				case 0:
					reg.Point("slice_ns", lab, clock[n], float64(i))
				case 1:
					reg.AddSpan(span)
				case 2:
					reg.Record(SchedEvent{At: clock[n], Node: n, VCPU: i})
				}
			}
			switch r.Intn(9) {
			case 0:
				watched.Snapshot()
			case 1:
				watched.Metrics()
			}
		}
		if a, b := quiet.Snapshot(), watched.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: the final snapshot depends on the snapshots taken along the way\nwithout %+v\nwith    %+v", seed, a, b)
		}
	}
}

// TestMetricsViewMatchesSnapshot checks that the /metrics view is the
// full snapshot with its spans and all but each series' last point
// left out.
func TestMetricsViewMatchesSnapshot(t *testing.T) {
	st := newSpanStream(7, 4, 0)
	p := st.p
	for i := 0; i < 4; i++ {
		r := p.Node(i)
		r.Add("dispatches", Label{Node: i}, uint64(3*i+1))
		r.SetGauge("run_ns", Label{Node: i, VM: "vm1"}, float64(i)/3)
		r.Observe("spin_latency", Label{Node: i, VM: "vm0"}, sim.Time(i)*sim.Millisecond)
		for k := 0; k <= i; k++ {
			r.Point("slice_ns", Label{Node: i, VM: "vm0"}, sim.Time(k), float64(10*i+k))
		}
	}
	p.Global().Point("fleet_nodes", GlobalLabel(), 1, 2)
	st.publish(300)

	want := p.Snapshot()
	want.Spans = nil
	for i, s := range want.Series {
		want.Series[i].Points = s.Points[len(s.Points)-1:]
	}
	if got := p.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics view differs from the trimmed snapshot\ngot  %+v\nwant %+v", got, want)
	}
}
