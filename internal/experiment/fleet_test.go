package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestFleetSmallRuns drives the fleet control-plane sweep at small
// scale and checks its shape: one row per (nodes, shards) cell, every
// cell committing decisions, and the measurements appended to the
// BENCH trajectory with a nonzero p99 step latency.
func TestFleetSmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hollow fleet sweep")
	}
	old := benchScalePath
	benchScalePath = filepath.Join(t.TempDir(), "BENCH_scale.json")
	defer func() { benchScalePath = old }()

	e, err := ByID("fleet")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Bench {
		t.Error("fleet experiment must be marked Bench (wall-clock timings)")
	}
	tables, err := e.Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	nodeSteps, shardSteps := fleetLadder(Small)
	if want := len(nodeSteps) * len(shardSteps); len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	for _, row := range tb.Rows {
		periods, _ := strconv.Atoi(row[2])
		decisions, _ := strconv.Atoi(row[3])
		if periods != fleetPeriods {
			t.Errorf("nodes=%s shards=%s: periods = %d, want %d", row[0], row[1], periods, fleetPeriods)
		}
		// Hollow nodes report every period once warmed up; expect at
		// least half the ideal nodes*periods decision count.
		n, _ := strconv.Atoi(row[0])
		if decisions < n*fleetPeriods/2 {
			t.Errorf("nodes=%s shards=%s: decisions = %d, want >= %d", row[0], row[1], decisions, n*fleetPeriods/2)
		}
	}

	raw, err := os.ReadFile(benchScalePath)
	if err != nil {
		t.Fatal(err)
	}
	var file benchScaleFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 1 || len(file.Runs[0].Fleet) != len(tb.Rows) {
		t.Fatalf("bench file: %d runs, fleet cells = %v", len(file.Runs), file.Runs)
	}
	for _, c := range file.Runs[0].Fleet {
		if c.P99StepUS <= 0 {
			t.Errorf("nodes=%d shards=%d: p99 step latency = %v, want > 0", c.Nodes, c.FleetShards, c.P99StepUS)
		}
		if c.Decisions == 0 || c.WallS <= 0 || c.SimS <= 0 {
			t.Errorf("nodes=%d shards=%d: incomplete cell %+v", c.Nodes, c.FleetShards, c)
		}
	}
}
