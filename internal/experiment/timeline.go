package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// timelineTraceCap bounds the scheduling records each node keeps for
// the timeline export; the showcase run is a few virtual seconds, well
// inside it.
const timelineTraceCap = 500000

// TimelineResult is one instrumented showcase run, ready for export
// with telemetry.WriteFiles, WriteTimeline or WriteJSONL.
type TimelineResult struct {
	// Snapshot holds the run's end-of-run metrics, spans (spin episodes,
	// BSP rounds, fault windows) and scheduling records (dispatches,
	// preemptions, slice changes, policy swaps).
	Snapshot telemetry.Snapshot
}

// showcase runs one instrumented scenario for the timeline/JSONL
// exports: it builds cfg with a fresh telemetry plane that also records
// up to traceCap scheduling records per node, installs the tenants,
// runs for d of virtual time, audits the end state and publishes
// end-of-run totals.
func showcase(name string, cfg cluster.Config, traceCap int, d sim.Time, tenants func(*cluster.Scenario)) (*TimelineResult, error) {
	plane := telemetry.New(telemetry.Options{RecordCap: traceCap})
	cfg.Telemetry = plane
	s, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s.World.SetRecording(plane)
	tenants(s)
	s.GoFor(d)
	if errs := s.World.Audit(); len(errs) > 0 {
		return nil, fmt.Errorf("%s: audit: %v", name, errs[0])
	}
	s.FinalizeTelemetry()
	return &TimelineResult{Snapshot: plane.Snapshot()}, nil
}

// Timeline runs the fault-injection showcase under ATC with the full
// telemetry plane and scheduling records attached: the straggler and
// packet-loss windows of the faults experiment over parallel tenants,
// so the exported timeline shows spin-episode spans, slice-change
// markers, BSP round spans, and the fault windows on one sim-time axis.
func Timeline(sc Scale, seed uint64) (*TimelineResult, error) {
	cfg := cluster.DefaultConfig(sc.NodeSteps[0], cluster.ATC)
	cfg.Seed = seed
	cfg.Faults = faultSpec()
	return showcase("timeline", cfg, timelineTraceCap, faultWindow*faultWindows,
		func(s *cluster.Scenario) { luTenants(s, sc) })
}
