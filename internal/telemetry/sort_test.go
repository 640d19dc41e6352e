package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"atcsched/internal/rng"
	"atcsched/internal/sim"
)

// refSortSnapshot is sortSnapshot as it was written with the
// reflection-based sort package, kept as the oracle for the typed sorts.
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
// distinct (name, label) keys in shuffled order, and spans drawn from a
// few start times and nodes so that many tie on (start, node) and only
// their publish order (the Value field) tells them apart.
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
	for i := 0; i < 500; i++ {
		s.Spans = append(s.Spans, Span{
			Name:  "spin",
			Track: fmt.Sprintf("vm%d/0", r.Intn(3)),
			Node:  r.Intn(4) - 1,
			Start: sim.Time(r.Intn(8)) * sim.Microsecond,
			Value: sim.Time(i),
		})
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
// section in exactly the order the reflection-based oracle does,
// including the stable order of spans tied on (start, node).
func TestSortSnapshotMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		got := randomSnapshot(rng.New(seed))
		want := randomSnapshot(rng.New(seed))
		sortSnapshot(&got)
		refSortSnapshot(&want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sortSnapshot order differs from the reference", seed)
		}
	}
}
