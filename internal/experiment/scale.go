package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/sim"
	"atcsched/internal/workload"
)

// The scale experiment is a kubemark-style hollow-node sweep: each node
// (cluster.HollowConfig) carries one single-VCPU VM running a light
// ring-exchange BSP kernel (workload.HollowRing), so
// the harness measures the simulation core itself — event dispatch,
// fabric delivery, shard synchronization — rather than scheduler policy.
// Every node ladder is swept at several shard counts, with shards=1 as
// the baseline, and the measured events/s and wall-clock appended to
// BENCH_scale.json.

// benchScalePath is where the sweep appends its measurements; a package
// variable so tests can redirect it.
var benchScalePath = "BENCH_scale.json"

// scaleSimTime is the virtual time each cell simulates. Constant across
// cells so events scale with the node count, not the clock.
const scaleSimTime = 100 * sim.Millisecond

// scaleLadder returns the hollow-node counts and shard sets for a scale.
// The first shard count (1) is the baseline each other cell is compared
// against.
func scaleLadder(sc Scale) (nodes []int, shards []int) {
	switch sc.Name {
	case "small":
		return []int{32, 64}, []int{1, 2}
	case "medium":
		return []int{32, 128, 512, 1024}, []int{1, 2, 4, 8}
	default: // full
		return []int{32, 128, 512, 1024, 2048, 4096}, []int{1, 2, 4, 8}
	}
}

// scaleCell is one (nodes, shards) measurement, as recorded in
// BENCH_scale.json.
type scaleCell struct {
	Nodes     int     `json:"nodes"`
	Shards    int     `json:"shards"` // 0 marks a serial-engine cell in runs recorded before it was retired
	Events    uint64  `json:"events"`
	WallS     float64 `json:"wall_s"`
	EventsPS  float64 `json:"events_per_s"`
	SimS      float64 `json:"sim_s"`
	HeapMB    float64 `json:"heap_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"` // the process's peak RSS so far, not the cell's own
}

// scaleRun is one full sweep appended to BENCH_scale.json: a simulator
// sweep fills Cells, a fleet control-plane sweep fills Fleet.
type scaleRun struct {
	Date  string      `json:"date"`
	Go    string      `json:"go"`
	Cores int         `json:"cores"`
	Scale string      `json:"scale"`
	Seed  uint64      `json:"seed"`
	Cells []scaleCell `json:"cells,omitempty"`
	Fleet []fleetCell `json:"fleet,omitempty"`
}

// benchScaleFile is the BENCH_scale.json shape: runs accumulate across
// invocations (and PRs), newest last.
type benchScaleFile struct {
	Runs []scaleRun `json:"runs"`
}

// runScaleCell builds a hollow world of n nodes at the given shard count
// and drives it for scaleSimTime of virtual time, returning the cell's
// measurements.
func runScaleCell(n, shards int, seed uint64) (scaleCell, error) {
	cfg := cluster.HollowConfig(n, cluster.CR)
	cfg.Shards = shards
	cfg.Seed = seed
	s, err := cluster.New(cfg)
	if err != nil {
		return scaleCell{}, err
	}
	vms := s.VirtualCluster("hollow", n, 1, nil)
	s.RunBackground(workload.HollowRing(), vms)

	start := time.Now()
	s.GoFor(scaleSimTime)
	wall := time.Since(start).Seconds()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cell := scaleCell{
		Nodes:     n,
		Shards:    shards,
		Events:    s.World.Executed(),
		WallS:     wall,
		SimS:      scaleSimTime.Seconds(),
		HeapMB:    float64(ms.HeapAlloc) / (1 << 20),
		PeakRSSMB: peakRSSMB(),
	}
	if wall > 0 {
		cell.EventsPS = float64(cell.Events) / wall
	}
	return cell, nil
}

// peakRSSMB reads the process high-water RSS (VmHWM) from
// /proc/self/status. It is monotone over the process lifetime, so later
// cells inherit the peak of earlier, larger ones; 0 when unreadable
// (non-Linux hosts).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// peakRSSNote explains the peakRSSMB column of the fleet and scale tables.
const peakRSSNote = "process peak RSS so far is the process's high-water RSS (VmHWM) when the cell ends: " +
	"cells run one after another in one process, so it is the largest of this cell's and every " +
	"earlier cell's peak, not the cell's own."

// appendBenchScale appends one sweep to benchScalePath, creating the
// file when absent and preserving prior runs.
func appendBenchScale(run scaleRun) error {
	var file benchScaleFile
	if b, err := os.ReadFile(benchScalePath); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("parse %s: %w", benchScalePath, err)
		}
	}
	file.Runs = append(file.Runs, run)
	b, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchScalePath, append(b, '\n'), 0o644)
}

func init() {
	register(Experiment{
		ID: "scale",
		Title: "Extension — hollow-node scale sweep: simulator events/s and " +
			"wall-clock, 32 to 4096 nodes, 1/2/4/8 shards",
		Bench: true,
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			nodeSteps, shardSteps := scaleLadder(sc)
			t := report.New(
				fmt.Sprintf("Scale sweep (%s): %v nodes x shards %v, %v virtual time per cell",
					sc.Name, nodeSteps, shardSteps, scaleSimTime),
				"nodes", "shards", "events", "wall (s)", "events/s", "vs 1 shard", "heap MB", "process peak RSS so far MB")
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
					cell, err := runScaleCell(n, shards, seed)
					if err != nil {
						return nil, fmt.Errorf("scale: nodes=%d shards=%d: %w", n, shards, err)
					}
					run.Cells = append(run.Cells, cell)
					vsBase := "baseline"
					if shards == shardSteps[0] {
						basePS = cell.EventsPS
					} else if basePS > 0 {
						vsBase = fmt.Sprintf("%.2fx", cell.EventsPS/basePS)
					}
					t.Add(strconv.Itoa(n), strconv.Itoa(shards),
						strconv.FormatUint(cell.Events, 10),
						fmt.Sprintf("%.3f", cell.WallS),
						fmt.Sprintf("%.0f", cell.EventsPS),
						vsBase,
						fmt.Sprintf("%.1f", cell.HeapMB),
						fmt.Sprintf("%.1f", cell.PeakRSSMB))
				}
			}
			t.AddNote("shards=1 is the baseline; every row runs the same sharded core "+
				"(lookahead %v). Host has %d core(s): with one core the multi-shard rows can only "+
				"match the baseline (goroutines serialize), the >=1.0x-at->=1024-nodes "+
				"speedup criterion applies on multi-core hosts.",
				cluster.DefaultConfig(2, cluster.CR).Net.WireLatency, runtime.NumCPU())
			t.AddNote(peakRSSNote + " Per-cell attribution is the heap column.")
			if err := appendBenchScale(run); err != nil {
				t.AddNote("WARNING: could not append to %s: %v", benchScalePath, err)
			} else {
				t.AddNote("appended run to %s", benchScalePath)
			}
			return []*report.Table{t}, nil
		},
	})
}
