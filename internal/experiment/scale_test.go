package experiment

import "testing"

// TestScaleCellEventsIndependentOfWorkers runs one -exp scale cell, 32
// hollow nodes, at 1, 2 and 4 workers: each cell reports its own
// (nodes, shards) and fires the same events.
func TestScaleCellEventsIndependentOfWorkers(t *testing.T) {
	var want uint64
	for _, workers := range []int{1, 2, 4} {
		c, err := runScaleCell(32, workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes != 32 || c.Shards != workers || c.Events == 0 {
			t.Fatalf("cell %+v, want 32 nodes at %d workers with events fired", c, workers)
		}
		if workers == 1 {
			want = c.Events
		} else if c.Events != want {
			t.Errorf("%d workers fired %d events, 1 worker %d", workers, c.Events, want)
		}
	}
}

// TestScaleLadderBaseline checks that every scale's ladder has node
// counts and starts its shard counts at 1, the baseline every other cell
// is compared against.
func TestScaleLadderBaseline(t *testing.T) {
	for _, sc := range []Scale{Small, Medium, Full} {
		nodes, shards := scaleLadder(sc)
		if len(nodes) == 0 || len(shards) == 0 || shards[0] != 1 {
			t.Errorf("%s: ladder nodes %v shards %v, want shard counts starting at 1", sc.Name, nodes, shards)
		}
	}
}
