package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"atcsched/internal/sim"
)

// traceEvent is one Chrome/Perfetto trace-event JSON object. Timestamps
// and durations are microseconds (the trace-event convention).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// timelineFile is the top-level trace-event JSON object.
type timelineFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// track identifies one timeline row: a per-node PCPU lane, a per-VM
// spin lane, the rounds lane, or the daemon lane.
type track struct {
	node int
	name string
}

// WriteTimeline renders a snapshot's scheduling records and spans as
// Chrome/Perfetto trace-event JSON (load with ui.perfetto.dev or
// chrome://tracing). Each node becomes a process; PCPUs, per-VM spin lanes, and span
// tracks become threads. Dispatch→preempt/block pairs become complete
// ("X") slices, slice changes and policy swaps become instant ("i")
// markers, and telemetry spans (spin episodes, BSP rounds, controller
// decisions, fault windows) become "X" slices on their own lanes.
// Output is deterministic: one JSON object, stable track numbering.
func WriteTimeline(w io.Writer, snap Snapshot) error {
	var out []traceEvent
	tids := map[track]int{}
	// tid lays out lanes per node: PCPUs first (stable small indices),
	// then named lanes in first-use order — remapped to sorted order at
	// the end for determinism.
	tid := func(t track) int {
		id, ok := tids[t]
		if !ok {
			id = len(tids)
			tids[t] = id
		}
		return id
	}

	// Open dispatch per (node, pcpu): index by a composite key.
	type lane struct{ node, pcpu int }
	open := map[lane]*SchedEvent{}
	closeLane := func(l lane, at sim.Time) {
		d := open[l]
		if d == nil {
			return
		}
		delete(open, l)
		out = append(out, traceEvent{
			Name: fmt.Sprintf("%s/%d", d.VM, d.VCPU),
			Cat:  "sched",
			Ph:   "X",
			TS:   d.At.Micros(),
			Dur:  (at - d.At).Micros(),
			PID:  d.Node,
			TID:  tid(track{d.Node, fmt.Sprintf("pcpu%d", d.PCPU)}),
		})
	}
	var last sim.Time
	for i := range snap.Records {
		ev := snap.Records[i]
		if ev.At > last {
			last = ev.At
		}
		switch ev.Kind {
		case SchedDispatch:
			l := lane{ev.Node, ev.PCPU}
			closeLane(l, ev.At) // defensive: a dangling dispatch ends here
			e := ev
			open[l] = &e
		case SchedPreempt, SchedBlock:
			closeLane(lane{ev.Node, ev.PCPU}, ev.At)
		case SchedSlice:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("slice %s=%v", ev.VM, ev.Arg),
				Cat:  "control",
				Ph:   "i",
				TS:   ev.At.Micros(),
				PID:  ev.Node,
				TID:  tid(track{ev.Node, "control"}),
				S:    "t",
				Args: map[string]any{"vm": ev.VM, "slice_us": ev.Arg.Micros()},
			})
		case SchedSwap:
			out = append(out, traceEvent{
				Name: "policy swap",
				Cat:  "control",
				Ph:   "i",
				TS:   ev.At.Micros(),
				PID:  ev.Node,
				TID:  tid(track{ev.Node, "control"}),
				S:    "t",
			})
		}
	}
	// Close lanes still open at the last observed instant.
	lanes := make([]lane, 0, len(open))
	for l := range open {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].node != lanes[j].node {
			return lanes[i].node < lanes[j].node
		}
		return lanes[i].pcpu < lanes[j].pcpu
	})
	for _, l := range lanes {
		closeLane(l, last)
	}

	for _, sp := range snap.Spans {
		node := sp.Node
		if node < 0 {
			node = -1 // the "cluster" pseudo-process
		}
		args := map[string]any{}
		if sp.Value != 0 {
			args["value_us"] = sp.Value.Micros()
		}
		out = append(out, traceEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   sp.Start.Micros(),
			Dur:  (sp.End - sp.Start).Micros(),
			PID:  node,
			TID:  tid(track{node, sp.Name + ":" + sp.Track}),
			Args: args,
		})
		if sp.End > last {
			last = sp.End
		}
	}

	// Remap tids to a canonical order (per node: sorted lane names) and
	// emit process/thread metadata so Perfetto shows readable names.
	ordered := make([]track, 0, len(tids))
	for t := range tids {
		ordered = append(ordered, t)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].node != ordered[j].node {
			return ordered[i].node < ordered[j].node
		}
		return ordered[i].name < ordered[j].name
	})
	remap := make(map[int]int, len(ordered))
	var meta []traceEvent
	for i, t := range ordered {
		remap[tids[t]] = i
		meta = append(meta, traceEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  t.node,
			TID:  i,
			Args: map[string]any{"name": t.name},
		})
	}
	for i := range out {
		out[i].TID = remap[out[i].TID]
	}
	nodes := map[int]bool{}
	for _, t := range ordered {
		if !nodes[t.node] {
			nodes[t.node] = true
			name := fmt.Sprintf("node%d", t.node)
			if t.node < 0 {
				name = "cluster"
			}
			meta = append(meta, traceEvent{
				Name: "process_name",
				Ph:   "M",
				PID:  t.node,
				TID:  0,
				Args: map[string]any{"name": name},
			})
		}
	}
	// Stable event order: metadata first, then payload sorted by
	// (ts, pid, tid, name) — the merge above interleaves sources.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Name < out[j].Name
	})
	file := timelineFile{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
