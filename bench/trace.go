package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"atcsched/internal/daemon"
	"atcsched/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are host
// nanoseconds since the rep started; Parent is the enclosing span's ID,
// 0 at the top level.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps a rep's spans in memory. It is used only from the
// goroutine that drives the workload, so spans nest by call order. A nil
// tracer records nothing, which is how untraced reps run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the unfinished spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned and gives its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// durations lists the durations of every span with the given name, in
// milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// tracedSource records a span around every SampleFleet call and keeps the
// duration and heap allocations of the latest one, so a step's own cost
// can be told from its source's (for SimBackend, advancing the world).
type tracedSource struct {
	inner      daemon.FleetSource
	tr         *tracer
	last       time.Duration
	lastAllocs uint64
}

func (s *tracedSource) SampleFleet() ([]daemon.NodeBatch, error) {
	a0 := heapAllocs()
	sp := s.tr.begin("daemon.SampleFleet")
	b, err := s.inner.SampleFleet()
	s.last = s.tr.end(sp)
	s.lastAllocs = heapAllocs() - a0
	return b, err
}

// timedActuator sums the host time of ApplyNode calls. The fleet calls it
// from its shard goroutines, so it aggregates with atomics instead of
// recording spans; one span per node-period would also swamp the trace.
type timedActuator struct {
	inner daemon.FleetActuator
	calls atomic.Int64
	ns    atomic.Int64
}

func (a *timedActuator) ApplyNode(node int, slices map[int]sim.Time) error {
	t := time.Now()
	err := a.inner.ApplyNode(node, slices)
	a.ns.Add(int64(time.Since(t)))
	a.calls.Add(1)
	return err
}

// meanUS is the mean ApplyNode time in microseconds.
func (a *timedActuator) meanUS() float64 {
	n := a.calls.Load()
	if n == 0 {
		return 0
	}
	return float64(a.ns.Load()) / float64(n) / 1e3
}

// traceEvent is one Chrome trace-event record, the JSON format Perfetto
// and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracedRep is one traced rep's spans, labelled for the span file.
type tracedRep struct {
	workload string
	rep      int
	spans    []span
}

// writeSpans writes every traced rep's spans as one Perfetto-loadable
// trace: a process per rep, spans as complete events on one thread.
func writeSpans(path string, reps []tracedRep) error {
	var events []traceEvent
	for pid, r := range reps {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": fmt.Sprintf("%s rep %d", r.workload, r.rep)}})
		for _, s := range r.spans {
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "rep": r.rep},
			})
		}
	}
	b, err := json.Marshal(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
