package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/report"
	"atcsched/internal/workload"
)

// The fleet experiment measures the control plane itself — the sharded
// atcd control loop of internal/daemon.Fleet — rather than the
// simulation core (that is the scale experiment's job) or scheduler
// policy. Each cell drives a hollow N-node cluster through Fleet.Step
// (sample → per-shard decide/actuate/commit → join) at a given shard
// count and records decisions/s and the p99 wall time of one Step.

// fleetPeriods is the number of control periods each cell runs. Constant
// across cells so the decision count scales with the node count.
const fleetPeriods = 40

// fleetLadder returns the hollow-node counts and fleet shard counts for
// a scale.
func fleetLadder(sc Scale) (nodes []int, shards []int) {
	switch sc.Name {
	case "small":
		return []int{64}, []int{1, 2}
	default: // medium, full
		return []int{64, 256, 1024}, []int{1, 2, 4, 8}
	}
}

// fleetCell is one (nodes, fleet shards) measurement, as recorded in
// BENCH_scale.json.
type fleetCell struct {
	Nodes       int     `json:"nodes"`
	FleetShards int     `json:"fleet_shards"`
	Periods     uint64  `json:"periods"`
	Decisions   uint64  `json:"decisions"`
	WallS       float64 `json:"wall_s"`
	DecisionsPS float64 `json:"decisions_per_s"`
	// P99DecisionUS is kept for rows written before the per-period
	// fan-out, when the fleet timed each batch from ingest to actuation.
	P99DecisionUS float64 `json:"p99_decision_us,omitempty"`
	P99StepUS     float64 `json:"p99_step_us,omitempty"`
	SimS          float64 `json:"sim_s"`
	// PeakRSSMB is the process's peak RSS so far (see peakRSSMB), not
	// the cell's own.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runFleetCell builds a hollow fleet of n nodes sharded s ways, runs it
// for fleetPeriods control periods, and returns the cell's measurements.
func runFleetCell(n, shards int, seed uint64) (fleetCell, error) {
	sb, err := daemon.NewSimBackend(daemon.SimBackendConfig{
		Nodes:      n,
		Class:      workload.ClassB,
		MaxPeriods: fleetPeriods,
		Seed:       seed,
		Hollow:     true,
	})
	if err != nil {
		return fleetCell{}, err
	}
	f := daemon.NewFleet(core.DefaultConfig(), sb, sb, daemon.FleetOptions{
		Shards:   shards,
		MaxNodes: n,
	})
	defer f.Close()

	var steps []time.Duration
	start := time.Now()
	for {
		t := time.Now()
		err := f.Step()
		if daemon.IsDone(err) {
			break
		}
		if err != nil {
			return fleetCell{}, err
		}
		steps = append(steps, time.Since(t))
	}
	wall := time.Since(start).Seconds()

	cell := fleetCell{
		Nodes:       n,
		FleetShards: shards,
		Periods:     f.Periods(),
		Decisions:   f.Decisions(),
		WallS:       wall,
		SimS:        sb.Now().Seconds(),
		PeakRSSMB:   peakRSSMB(),
	}
	if wall > 0 {
		cell.DecisionsPS = float64(cell.Decisions) / wall
	}
	if len(steps) > 0 {
		sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
		rank := int(math.Ceil(0.99*float64(len(steps)))) - 1
		cell.P99StepUS = float64(steps[rank].Nanoseconds()) / 1e3
	}
	return cell, nil
}

func init() {
	register(Experiment{
		ID: "fleet",
		Title: "Extension — fleet control-plane sweep: atcd decisions/s and " +
			"p99 step latency, 64 to 1024 hollow nodes, 1 to 8 fleet shards",
		Bench: true,
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			nodeSteps, shardSteps := fleetLadder(sc)
			t := report.New(
				fmt.Sprintf("Fleet sweep (%s): %v nodes x fleet shards %v, %d control periods per cell",
					sc.Name, nodeSteps, shardSteps, fleetPeriods),
				"nodes", "shards", "periods", "decisions", "wall (s)", "decisions/s",
				"p99 step", "vs 1 shard", "process peak RSS so far MB")
			run := scaleRun{
				Date:  time.Now().Format("2006-01-02"),
				Go:    runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
				Cores: runtime.NumCPU(),
				Scale: sc.Name,
				Seed:  seed,
			}
			for _, n := range nodeSteps {
				var basePS float64
				for _, shards := range shardSteps {
					cell, err := runFleetCell(n, shards, seed)
					if err != nil {
						return nil, fmt.Errorf("fleet: nodes=%d shards=%d: %w", n, shards, err)
					}
					run.Fleet = append(run.Fleet, cell)
					vsBase := "baseline"
					if shards == 1 {
						basePS = cell.DecisionsPS
					} else if basePS > 0 {
						vsBase = fmt.Sprintf("%.2fx", cell.DecisionsPS/basePS)
					}
					t.Add(strconv.Itoa(n), strconv.Itoa(shards),
						strconv.FormatUint(cell.Periods, 10),
						strconv.FormatUint(cell.Decisions, 10),
						fmt.Sprintf("%.3f", cell.WallS),
						fmt.Sprintf("%.0f", cell.DecisionsPS),
						fmt.Sprintf("%.0fus", cell.P99StepUS),
						vsBase,
						fmt.Sprintf("%.1f", cell.PeakRSSMB))
				}
			}
			t.AddNote("each cell drives a hollow cluster (one light VM per node) through Fleet.Step: "+
				"sample every node -> one worker goroutine per fleet shard deciding, actuating and "+
				"committing a contiguous range of the node table -> join. p99 step is the wall time of one whole Step, sample included. "+
				"Host has %d core(s); shard speedups need multiple cores.", runtime.NumCPU())
			t.AddNote("a Step's wall time includes advancing the simulated world by one period, " +
				"so decisions/s understates the control-plane-only ceiling at large node counts.")
			t.AddNote(peakRSSNote)
			if err := appendBenchScale(run); err != nil {
				t.AddNote("WARNING: could not append to %s: %v", benchScalePath, err)
			} else {
				t.AddNote("appended run to %s", benchScalePath)
			}
			return []*report.Table{t}, nil
		},
	})
}
