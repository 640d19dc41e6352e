package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"atcsched/internal/sim"
)

func cfg() Config { return DefaultConfig() }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mk := func(def, min, alpha, beta sim.Time, window int) Config {
		return Config{Default: def, Params: Params{MinThreshold: min, Alpha: alpha, Beta: beta, Window: window}}
	}
	bad := []Config{
		{},
		mk(30*sim.Millisecond, 0, 2, 1, 3),
		mk(sim.Millisecond, 2*sim.Millisecond, 2, 1, 3),
		mk(30*sim.Millisecond, sim.Millisecond, 1, 2, 3),
		mk(30*sim.Millisecond, sim.Millisecond, 2, 1, 1),
		mk(30*sim.Millisecond, sim.Millisecond, 0, 0, 3),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewControllerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewController(Config{})
}

func TestColdStartStaysAtDefault(t *testing.T) {
	c := NewController(cfg())
	// No observations at all: zero-latency window → default.
	if got := c.ComputeSlice(1); got != cfg().Default {
		t.Errorf("cold slice = %v, want default", got)
	}
}

func TestRisingLatencyShortensByAlpha(t *testing.T) {
	c := NewController(cfg())
	c.Observe(1, 1*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 2*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 3*sim.Millisecond, 30*sim.Millisecond)
	if got := c.ComputeSlice(1); got != 24*sim.Millisecond {
		t.Errorf("slice = %v, want 24ms (30ms - α)", got)
	}
}

func TestShorteningConvergesToThreshold(t *testing.T) {
	c := NewController(cfg())
	slice := cfg().Default
	lat := sim.Millisecond
	// Keep latency rising forever; the slice must walk down by α then β
	// and stop exactly at the minimum threshold.
	var prev sim.Time = -1
	for i := 0; i < 200; i++ {
		lat += sim.Millisecond
		c.Observe(1, lat, slice)
		next := c.ComputeSlice(1)
		if next > slice {
			t.Fatalf("slice grew under rising latency: %v -> %v", slice, next)
		}
		if next < cfg().MinThreshold {
			t.Fatalf("slice %v fell below threshold", next)
		}
		prev = slice
		slice = next
	}
	if slice != cfg().MinThreshold {
		t.Errorf("converged to %v, want threshold %v (prev %v)", slice, cfg().MinThreshold, prev)
	}
}

func TestAlphaThenBetaSteps(t *testing.T) {
	c := NewController(cfg())
	slice := cfg().Default
	lat := sim.Millisecond
	sawAlpha, sawBeta := false, false
	for i := 0; i < 200 && slice > cfg().MinThreshold; i++ {
		lat += sim.Millisecond
		c.Observe(1, lat, slice)
		next := c.ComputeSlice(1)
		switch slice - next {
		case cfg().Alpha:
			sawAlpha = true
			if sawBeta {
				t.Fatal("α step after β step")
			}
		case cfg().Beta:
			sawBeta = true
		case 0:
		default:
			t.Fatalf("unexpected step %v", slice-next)
		}
		slice = next
	}
	if !sawAlpha || !sawBeta {
		t.Errorf("sawAlpha=%v sawBeta=%v, want both", sawAlpha, sawBeta)
	}
}

func TestFallingLatencyDueToShorterSliceKeepsShortening(t *testing.T) {
	c := NewController(cfg())
	// Latency monotonically falls while the slice also fell: the paper
	// attributes the improvement to the shorter slice and keeps
	// shortening (Algorithm 1 line 1, second disjunct).
	c.Observe(1, 9*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 6*sim.Millisecond, 24*sim.Millisecond)
	c.Observe(1, 4*sim.Millisecond, 18*sim.Millisecond)
	if got := c.ComputeSlice(1); got != 12*sim.Millisecond {
		t.Errorf("slice = %v, want 12ms", got)
	}
}

func TestFallingLatencyWithConstantSliceHolds(t *testing.T) {
	c := NewController(cfg())
	// Latency falls but the slice did not change: no attribution, hold.
	c.Observe(1, 9*sim.Millisecond, 18*sim.Millisecond)
	c.Observe(1, 6*sim.Millisecond, 18*sim.Millisecond)
	c.Observe(1, 4*sim.Millisecond, 18*sim.Millisecond)
	if got := c.ComputeSlice(1); got != 18*sim.Millisecond {
		t.Errorf("slice = %v, want hold at 18ms", got)
	}
}

func TestZeroLatencyWindowRelaxesTowardDefault(t *testing.T) {
	c := NewController(cfg())
	// Three zero periods at a short slice: grow by α.
	for i := 0; i < 3; i++ {
		c.Observe(1, 0, 12*sim.Millisecond)
	}
	if got := c.ComputeSlice(1); got != 18*sim.Millisecond {
		t.Errorf("slice = %v, want 18ms (+α)", got)
	}
	// Near the default: snap to it.
	c2 := NewController(cfg())
	for i := 0; i < 3; i++ {
		c2.Observe(1, 0, 26*sim.Millisecond)
	}
	if got := c2.ComputeSlice(1); got != cfg().Default {
		t.Errorf("slice = %v, want default", got)
	}
}

func TestZeroLatencyRecoveryFromThreshold(t *testing.T) {
	c := NewController(cfg())
	slice := cfg().MinThreshold
	for i := 0; i < 50; i++ {
		c.Observe(1, 0, slice)
		slice = c.ComputeSlice(1)
	}
	if slice != cfg().Default {
		t.Errorf("recovered to %v, want default", slice)
	}
}

func TestSliceNeverExceedsDefaultNorFallsBelowThreshold(t *testing.T) {
	f := func(lats []uint32) bool {
		c := NewController(cfg())
		slice := cfg().Default
		for _, l := range lats {
			c.Observe(1, sim.Time(l%50)*sim.Millisecond/10, slice)
			slice = c.ComputeSlice(1)
			if slice < cfg().MinThreshold || slice > cfg().Default {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestObservePanics(t *testing.T) {
	c := NewController(cfg())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative latency accepted")
			}
		}()
		c.Observe(1, -1, sim.Millisecond)
	}()
	defer func() {
		if recover() == nil {
			t.Error("zero slice accepted")
		}
	}()
	c.Observe(1, 0, 0)
}

func TestForget(t *testing.T) {
	c := NewController(cfg())
	c.Observe(1, 5*sim.Millisecond, 12*sim.Millisecond)
	c.Forget(1)
	lat, slice := c.History(1)
	for i := range lat {
		if lat[i] != 0 || slice[i] != cfg().Default {
			t.Fatal("history not reset after Forget")
		}
	}
}

func TestHistoryOrder(t *testing.T) {
	c := NewController(cfg())
	c.Observe(1, 1*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 2*sim.Millisecond, 24*sim.Millisecond)
	c.Observe(1, 3*sim.Millisecond, 18*sim.Millisecond)
	c.Observe(1, 4*sim.Millisecond, 12*sim.Millisecond)
	lat, slice := c.History(1)
	wantLat := []sim.Time{2 * sim.Millisecond, 3 * sim.Millisecond, 4 * sim.Millisecond}
	wantSlice := []sim.Time{24 * sim.Millisecond, 18 * sim.Millisecond, 12 * sim.Millisecond}
	for i := range wantLat {
		if lat[i] != wantLat[i] || slice[i] != wantSlice[i] {
			t.Fatalf("history = %v/%v, want %v/%v", lat, slice, wantLat, wantSlice)
		}
	}
}

func TestNodeSlicesMinimumAcrossParallelVMs(t *testing.T) {
	c := NewController(cfg())
	// VM 1: high rising latency → wants to shorten. VM 2: idle.
	c.Observe(1, 1*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 2*sim.Millisecond, 30*sim.Millisecond)
	c.Observe(1, 3*sim.Millisecond, 30*sim.Millisecond)
	for i := 0; i < 3; i++ {
		c.Observe(2, 2*sim.Millisecond, 30*sim.Millisecond)
	}
	out := c.NodeSlices([]VMInfo{
		{ID: 1, Parallel: true},
		{ID: 2, Parallel: true},
		{ID: 3, Parallel: false},
		{ID: 4, Parallel: false, AdminSlice: 6 * sim.Millisecond},
	})
	if out[1] != 24*sim.Millisecond || out[2] != 24*sim.Millisecond {
		t.Errorf("parallel slices = %v/%v, want both 24ms (the minimum)", out[1], out[2])
	}
	if out[3] != cfg().Default {
		t.Errorf("non-parallel default slice = %v", out[3])
	}
	if out[4] != 6*sim.Millisecond {
		t.Errorf("admin slice = %v, want 6ms", out[4])
	}
}

func TestNodeSlicesNoParallelVMs(t *testing.T) {
	c := NewController(cfg())
	out := c.NodeSlices([]VMInfo{{ID: 1}, {ID: 2, AdminSlice: 6 * sim.Millisecond}})
	if out[1] != cfg().Default {
		t.Errorf("slice = %v, want default", out[1])
	}
	// The paper sets everything to default when no parallel VM exists;
	// the admin interface still applies to non-parallel VMs.
	if out[2] != 6*sim.Millisecond {
		t.Errorf("slice = %v, want admin 6ms", out[2])
	}
}

func TestOptimizeThresholdPaperShape(t *testing.T) {
	ms := func(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }
	// Synthetic per-app curves with minima spread around 0.2-0.4 ms so
	// that 0.3 ms wins overall — the paper's conclusion.
	perApp := map[string]map[sim.Time]float64{
		"lu": {ms(0.5): 0.30, ms(0.4): 0.28, ms(0.3): 0.27, ms(0.2): 0.26, ms(0.1): 0.30, ms(0.03): 0.40},
		"is": {ms(0.5): 0.20, ms(0.4): 0.18, ms(0.3): 0.17, ms(0.2): 0.18, ms(0.1): 0.22, ms(0.03): 0.30},
		"sp": {ms(0.5): 0.40, ms(0.4): 0.38, ms(0.3): 0.37, ms(0.2): 0.38, ms(0.1): 0.41, ms(0.03): 0.50},
		"bt": {ms(0.5): 0.45, ms(0.4): 0.44, ms(0.3): 0.43, ms(0.2): 0.44, ms(0.1): 0.47, ms(0.03): 0.55},
		"mg": {ms(0.5): 0.35, ms(0.4): 0.33, ms(0.3): 0.32, ms(0.2): 0.33, ms(0.1): 0.36, ms(0.03): 0.45},
		"cg": {ms(0.5): 0.25, ms(0.4): 0.24, ms(0.3): 0.23, ms(0.2): 0.24, ms(0.1): 0.28, ms(0.03): 0.38},
	}
	best, table, err := OptimizeThreshold(perApp)
	if err != nil {
		t.Fatal(err)
	}
	if best != ms(0.3) {
		t.Errorf("best = %v, want 0.3ms", best)
	}
	if len(table) != 6 {
		t.Fatalf("table size = %d", len(table))
	}
	// Table sorted by descending slice.
	for i := 1; i < len(table); i++ {
		if table[i].Slice >= table[i-1].Slice {
			t.Error("table not sorted by descending slice")
		}
	}
	// D must be 0 when an app set dominates... here just check bounds.
	for _, r := range table {
		if r.D < 0 {
			t.Errorf("negative distance %v", r.D)
		}
	}
}

// TestOptimizeThresholdTieBreak pins the tie rule: candidates with
// exactly equal D resolve to the first in descending-slice order, the
// same answer for every map insertion and iteration order.
func TestOptimizeThresholdTieBreak(t *testing.T) {
	us := func(n int) sim.Time { return sim.Time(n) * sim.Microsecond }
	// 0.4, 0.3 and 0.2 ms each sit exactly 0.25 from one app's optimum
	// (dyadic values, so every D is the same float64); 0.5 ms is worse.
	curves := map[string][]float64{
		"a": {1.0, 0.75, 0.5, 0.75},
		"b": {1.0, 0.5, 0.75, 0.5},
		"c": {0.5, 0.5, 0.5, 0.5},
	}
	slices := []sim.Time{us(500), us(400), us(300), us(200)}
	appOrders := [][]string{{"a", "b", "c"}, {"c", "b", "a"}, {"b", "c", "a"}}
	sliceOrders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	for _, apps := range appOrders {
		for _, order := range sliceOrders {
			perApp := make(map[string]map[sim.Time]float64)
			for _, app := range apps {
				perApp[app] = make(map[sim.Time]float64)
				for _, i := range order {
					perApp[app][slices[i]] = curves[app][i]
				}
			}
			for rep := 0; rep < 20; rep++ {
				best, table, err := OptimizeThreshold(perApp)
				if err != nil {
					t.Fatal(err)
				}
				if best != us(400) {
					t.Fatalf("apps %v slices %v rep %d: best = %v, want 400µs (table %v)",
						apps, order, rep, best, table)
				}
				if table[1].D != table[2].D || table[2].D != table[3].D {
					t.Fatalf("candidates not tied: %v", table)
				}
			}
		}
	}
}

func TestOptimizeThresholdErrors(t *testing.T) {
	if _, _, err := OptimizeThreshold(nil); err == nil {
		t.Error("empty input accepted")
	}
	perApp := map[string]map[sim.Time]float64{
		"a": {sim.Millisecond: 1, 2 * sim.Millisecond: 1},
		"b": {sim.Millisecond: 1},
	}
	if _, _, err := OptimizeThreshold(perApp); err == nil {
		t.Error("inconsistent candidate sets accepted")
	}
	perApp2 := map[string]map[sim.Time]float64{
		"a": {sim.Millisecond: 1, 2 * sim.Millisecond: 1},
		"b": {sim.Millisecond: 1, 3 * sim.Millisecond: 1},
	}
	if _, _, err := OptimizeThreshold(perApp2); err == nil {
		t.Error("mismatched candidates accepted")
	}
}

// Property: NodeSlices assigns every parallel VM the same value, equal to
// the min of their ComputeSlice results, and never touches the window
// state (ComputeSlice is pure).
func TestNodeSlicesUniformMinProperty(t *testing.T) {
	f := func(latsRaw [][3]uint16, nVMs uint8) bool {
		n := int(nVMs%6) + 1
		if len(latsRaw) < n {
			return true
		}
		c := NewController(cfg())
		var infos []VMInfo
		for id := 0; id < n; id++ {
			slice := cfg().Default
			for _, l := range latsRaw[id] {
				c.Observe(id, sim.Time(l)*sim.Microsecond, slice)
				slice = c.ComputeSlice(id)
			}
			infos = append(infos, VMInfo{ID: id, Parallel: true})
		}
		want := sim.Time(0)
		for id := 0; id < n; id++ {
			s := c.ComputeSlice(id)
			if want == 0 || s < want {
				want = s
			}
		}
		out := c.NodeSlices(infos)
		for id := 0; id < n; id++ {
			if out[id] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkControllerNodeSlices times one node's period through the
// ID-keyed Controller — Observe every VM, then Algorithm 2 — per VM
// decision. NodeSlices returns a fresh map each call, which allocs/op
// shows.
func BenchmarkControllerNodeSlices(b *testing.B) {
	for _, vms := range []int{4, 64} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			c := NewController(cfg())
			infos := make([]VMInfo, vms)
			for id := range infos {
				infos[id] = VMInfo{ID: id, Parallel: id%4 != 3}
			}
			out := c.NodeSlices(infos)
			period := func(i int) {
				for id := range infos {
					c.Observe(id, sim.Time((i+id)%5)*100*sim.Microsecond, out[id])
				}
				out = c.NodeSlices(infos)
			}
			period(0) // create every VM's history
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				period(i)
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*vms), "ns/VM-decision")
		})
	}
}
