package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		higher     bool
		bound      float64
		floor      float64
		want       string
		wins       int
	}{
		{"clear gain", steady, shift(steady, -20), false, 0.1, 0, better, 10},
		{"gain when higher is better", steady, shift(steady, 20), true, 0.1, 0, better, 10},
		{"regression beyond bound", steady, shift(steady, 15), false, 0.1, 0, worse, 0},
		{"regression within bound", steady, shift(steady, 5), false, 0.1, 0, unchanged, 0},
		{"higher-is-better regression", steady, shift(steady, -15), true, 0.1, 0, worse, 0},
		{"gain needs ten pairs", steady[:9], shift(steady[:9], -20), false, 0.1, 0, unchanged, 9},
		{"gain needs 9 of 10 wins", steady,
			[]float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, false, 0.5, 0, unchanged, 8},
		{"gain smaller than the parent's spread", []float64{90, 110, 90, 110, 90, 110, 90, 110, 90, 110},
			[]float64{89, 109, 89, 109, 89, 109, 89, 109, 89, 109}, false, 0.5, 0, unchanged, 10},
		{"spread wider than bound", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100},
			shift(steady, 5), false, 0.1, 0, unresolved, 4},
		{"wide spread but every head run better", []float64{120, 160, 140, 130, 150},
			[]float64{100, 110, 90, 105, 95}, false, 0.1, 0, unchanged, 5},
		{"floor absorbs a shift near zero", []float64{0.002, 0.002, 0.002},
			[]float64{0.004, 0.004, 0.004}, false, 0.25, 0.010, unchanged, 0},
		{"floor absorbs spread near zero", []float64{0.007, 0.011, 0.008, 0.009, 0.012},
			[]float64{0.009, 0.007, 0.010, 0.008, 0.011}, false, 0.25, 0.010, unchanged, 3},
		{"deterministic count moved", []float64{11, 11, 11}, []float64{10, 10, 10}, true, 0, 0, worse, 0},
	} {
		got, wins, _ := verdict(c.base, c.head, c.higher, c.bound, c.floor)
		if got != c.want || wins != c.wins {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, got, wins, c.want, c.wins)
		}
	}
}

// TestCompareTable checks the comparator end to end on -out files: each
// side's files merge in name order, there is a row per bounded metric,
// per-layer metrics are skipped, and anything worse fails the comparison.
func TestCompareTable(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, walls ...float64) {
		doc := outFile{Workloads: []wlSummary{{Name: "hollow-ring", Correct: true, Metrics: []outMetric{
			{Name: "wall_s", Unit: "s", Samples: walls},
			{Name: "sim.events", Unit: "count", Samples: []float64{100}},
		}}}}
		if err := writeJSONFile(filepath.Join(dir, name), &doc); err != nil {
			t.Fatal(err)
		}
	}
	side := func(pattern string) []wlSummary {
		w, err := readSide(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	write("base-1.json", 2, 2.02)
	write("base-2.json", 1.98)
	write("same-1.json", 2.04, 2.01)
	write("same-2.json", 2.03)
	write("slow-1.json", 3, 3.1)
	write("slow-2.json", 2.9)

	base := side("base-*.json")
	if m := base[0].metric("wall_s"); m.N != 3 || m.Samples[2] != 1.98 || m.Median != 2 {
		t.Fatalf("merged base = %+v", m)
	}
	var out bytes.Buffer
	if bad := compare(s, base, side("same-*.json"), &out); bad {
		t.Errorf("within bound reported as bad:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "hollow-ring wall_s ") || !strings.Contains(out.String(), " 1/3 0.25 unchanged") ||
		strings.Contains(out.String(), "sim.events") {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	out.Reset()
	if bad := compare(s, base, side("slow-*.json"), &out); !bad || !strings.Contains(out.String(), " worse") {
		t.Errorf("regression not reported:\n%s", out.String())
	}
}
