package experiment

import (
	"fmt"
	"io"

	"atcsched/internal/cluster"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
)

// timelineTraceCap bounds the scheduling tracer behind the timeline
// export; the showcase run is a few virtual seconds, well inside it.
const timelineTraceCap = 500000

// TimelineResult is one instrumented showcase run, ready for export.
type TimelineResult struct {
	// Events is the merged scheduling-event stream (dispatches,
	// preemptions, slice changes, policy swaps).
	Events []telemetry.SchedEvent
	// Plane holds the run's metrics and spans (spin episodes, BSP
	// rounds, fault windows).
	Plane *telemetry.Plane
}

// Timeline runs the fault-injection showcase under ATC with the full
// telemetry plane and scheduling tracer attached: the straggler and
// packet-loss windows of the faults experiment over parallel tenants,
// so the exported timeline shows spin-episode spans, slice-change
// markers, BSP round spans, and the fault windows on one sim-time axis.
func Timeline(sc Scale, seed uint64) (*TimelineResult, error) {
	cfg := cluster.DefaultConfig(sc.NodeSteps[0], cluster.ATC)
	cfg.Seed = seed
	cfg.Faults = faultSpec()
	plane := telemetry.New(telemetry.Options{})
	cfg.Telemetry = plane
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s.World.SetTracer(vmm.NewTracer(timelineTraceCap))
	luTenants(s, sc)
	s.GoFor(faultWindow * faultWindows)
	if errs := s.World.Audit(); len(errs) > 0 {
		return nil, fmt.Errorf("timeline: audit: %v", errs[0])
	}
	s.FinalizeTelemetry()
	return &TimelineResult{Events: s.World.TelemetryEvents(), Plane: plane}, nil
}

// WriteTimeline exports the run as Chrome/Perfetto trace-event JSON.
func (r *TimelineResult) WriteTimeline(w io.Writer) error {
	return telemetry.WriteTimeline(w, r.Events, r.Plane.Snapshot())
}

// WriteJSONL exports the run's telemetry as a JSON Lines dump.
func (r *TimelineResult) WriteJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, r.Plane.Snapshot())
}
