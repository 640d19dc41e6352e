package scenario_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atcsched/internal/scenario"
)

// examplesDir is the committed scenario gallery shipped with the repo.
const examplesDir = "../../examples/scenarios"

// TestExampleScenariosValidate pins that every committed example file
// loads and validates — the gallery must never rot.
func TestExampleScenariosValidate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("only %d example scenarios found in %s", len(files), examplesDir)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := scenario.Load(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// loadExample builds one committed example scenario.
func loadExample(t *testing.T, name string) *scenario.Result {
	t.Helper()
	f, err := os.Open(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := scenario.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHeteroExample pins the committed heterogeneous-cluster example:
// CS cluster-wide with a custom spin threshold, node 1 on ATC, node 2
// on plain credit.
func TestHeteroExample(t *testing.T) {
	res := loadExample(t, "hetero.json")
	want := map[int]string{0: "CS", 1: "ATC", 2: "CR"}
	for n, name := range want {
		if got := res.Scenario.World.Node(n).Scheduler().Name(); got != name {
			t.Errorf("node %d scheduler = %s, want %s", n, got, name)
		}
	}
}

// TestFaultsExample runs the committed fault-injection example to
// completion: the plan must be live, every counted kind must inject,
// the report must carry the injection row, and the audit must stay
// clean under the faults.
func TestFaultsExample(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	res := loadExample(t, "faults.json")
	if res.Scenario.FaultPlan() == nil {
		t.Fatal("faults example built without a fault plan")
	}
	table, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Scenario.FaultReport()
	if rep.PacketsLost == 0 || rep.SamplesDropped == 0 || rep.SamplesNoised == 0 {
		t.Errorf("a configured fault kind never injected: %s", rep)
	}
	if !strings.Contains(table.String(), rep.String()) {
		t.Errorf("report table missing injection row:\n%s", table)
	}
	if errs := res.Scenario.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit under faults: %v", errs[0])
	}
}

// TestPolicySwitchExample runs the committed live-switch example to
// completion: it starts under CR and every node must have flipped to
// ATC by the time the measured work finishes.
func TestPolicySwitchExample(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	res := loadExample(t, "policy-switch.json")
	if _, err := res.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Scenario.World.Nodes() {
		if n.Scheduler().Name() != "ATC" || n.Swaps() != 1 {
			t.Errorf("node %d: scheduler %s, swaps %d; want ATC after one swap",
				n.ID(), n.Scheduler().Name(), n.Swaps())
		}
	}
	if errs := res.Scenario.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit after switch: %v", errs[0])
	}
}

// TestFleetExample runs the committed fleet-flavoured example to
// completion: a mixed-policy 4-node cluster carrying a daemon-crash
// blackout window. The window is inert for in-sim schedulers (they
// actuate locally, not through an external daemon), so the run must
// complete with a clean audit and the expected per-node policies — it
// documents the blackout shape the fleet control plane rides out.
func TestFleetExample(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	res := loadExample(t, "fleet.json")
	if res.Scenario.FaultPlan() == nil {
		t.Fatal("fleet example built without a fault plan")
	}
	if _, err := res.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{0: "ATC", 1: "ATC", 2: "CS", 3: "CR"}
	for n, name := range want {
		if got := res.Scenario.World.Node(n).Scheduler().Name(); got != name {
			t.Errorf("node %d scheduler = %s, want %s", n, got, name)
		}
	}
	if errs := res.Scenario.World.Audit(); len(errs) > 0 {
		t.Fatalf("audit: %v", errs[0])
	}
}

// TestDFRSExample runs the committed fractional-share example to
// completion: DFRS cluster-wide, node 2 on the ATC×DFRS hybrid from the
// start, and node 0 live-switched to the hybrid mid-run.
func TestDFRSExample(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	res := loadExample(t, "dfrs.json")
	if _, err := res.Run(); err != nil {
		t.Fatal(err)
	}
	w := res.Scenario.World
	want := map[int]string{0: "ATCDFRS", 1: "DFRS", 2: "ATCDFRS"}
	for n, name := range want {
		if got := w.Node(n).Scheduler().Name(); got != name {
			t.Errorf("node %d scheduler = %s, want %s", n, got, name)
		}
	}
	if swaps := w.Node(0).Swaps(); swaps != 1 {
		t.Errorf("node 0 swaps = %d, want 1 (the 0.3s live switch)", swaps)
	}
	if swaps := w.Node(1).Swaps(); swaps != 0 {
		t.Errorf("node 1 swaps = %d, want 0", swaps)
	}
	if errs := w.Audit(); len(errs) > 0 {
		t.Fatalf("audit: %v", errs[0])
	}
}
