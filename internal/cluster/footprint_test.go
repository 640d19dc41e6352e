package cluster

import (
	"runtime"
	"testing"

	"atcsched/internal/workload"
)

// TestHollowWorldFootprint guards the fixed cost per node engine: the
// bytes allocated to build and Start a 1,024-node hollow world stay
// within 4% of hollowStartBytes, what they were when all nodes shared
// one engine. An engine of its own per node may cost a little more, not
// a kilobyte-scale table per engine: at a 64-entry first growth, the
// same-instant lanes alone would add 1.5 MB.
func TestHollowWorldFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(HollowConfig(1024, CR))
	if err != nil {
		t.Fatal(err)
	}
	s.RunBackground(workload.HollowRing(), s.VirtualCluster("hollow", 1024, 1, nil))
	s.World.Start()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("building and starting 1,024 hollow nodes allocated %d bytes (%+.1f%%)",
		got, 100*(float64(got)/hollowStartBytes-1))
	if limit := uint64(hollowStartBytes + hollowStartBytes/25); got > limit {
		t.Errorf("building and starting 1,024 hollow nodes allocated %d bytes, over %d (4%% above %d)",
			got, limit, hollowStartBytes)
	}
}
