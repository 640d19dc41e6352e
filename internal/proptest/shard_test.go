package proptest

import (
	"testing"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
	"atcsched/internal/scenario"
)

// shardEquivSpec is the pinned shard-equivalence scenario: four nodes
// (so four shards are real, not clamped), two parallel clusters striped
// across them, non-parallel co-tenants, a live policy switch and a fault
// schedule exercising the network, compute and monitor planes — every
// subsystem whose sharding could leak into results.
func shardEquivSpec() Spec {
	return Spec{Spec: scenario.Spec{
		Seed:         7,
		Nodes:        4,
		PCPUsPerNode: 2,
		VirtualClusters: []scenario.VCSpec{
			{Kernel: "lu", Class: "A", VMs: 4, VCPUs: 2, Rounds: 2, Iterations: 3},
			{Kernel: "ep", Class: "A", VMs: 2, VCPUs: 2, Rounds: 2, Iterations: 2},
		},
		Jobs: []scenario.JobSpec{
			{Type: "web", Node: 0},
			{Type: "ping", Node: 2},
			{Type: "disk", Node: 3},
		},
		Switches:   []scenario.SwitchSpec{{AtSec: 0.2, Kind: "CR"}},
		HorizonSec: 900,
		Faults: &fault.Spec{Windows: []fault.Window{
			{Kind: fault.PCPUSlow, StartSec: 0.01, DurSec: 0.2, Nodes: []int{1}, Severity: 3},
			{Kind: fault.PacketLoss, StartSec: 0.02, DurSec: 0.3, Severity: 0.15},
			{Kind: fault.Bandwidth, StartSec: 0.1, DurSec: 0.2, Severity: 0.5},
			{Kind: fault.MonitorDrop, StartSec: 0.01, DurSec: 0.3, Severity: 0.4},
		}},
	}}
}

// shardCounts is the equivalence set the acceptance criteria name.
var shardCounts = []int{1, 2, 4, 8}

// shardFingerprint runs spec at the given shard count under one approach
// and returns the full determinism fingerprint.
func shardFingerprint(t *testing.T, spec Spec, approach cluster.Approach, shards int) string {
	t.Helper()
	spec.Shards = shards
	r, err := runOne(spec, approach, true)
	if err != nil {
		t.Fatalf("shards=%d: build: %v", shards, err)
	}
	if !r.completed {
		t.Fatalf("shards=%d: measured runs incomplete (rounds %v)", shards, r.runRounds)
	}
	return r.fingerprint
}

// TestShardEquivalencePinned proves the determinism fingerprint of the
// pinned scenario — faults, live switch and co-tenants included — is
// byte-identical at shard counts 1, 2, 4 and 8.
func TestShardEquivalencePinned(t *testing.T) {
	spec := shardEquivSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := shardFingerprint(t, spec, cluster.ATC, shardCounts[0])
	for _, sc := range shardCounts[1:] {
		if got := shardFingerprint(t, spec, cluster.ATC, sc); got != ref {
			t.Errorf("shards=%d: fingerprint diverged from shards=%d at byte %d of %d/%d",
				sc, shardCounts[0], diffAt(ref, got), len(ref), len(got))
		}
	}
}

// TestShardEquivalenceWorkSpan pins the shard group's work/span profile
// on the pinned scenario: the work (events fired, summed over segments)
// is the same at every shard count and is every event the world fired;
// one shard's span is all of the work, and more shards never make the
// span exceed it.
func TestShardEquivalenceWorkSpan(t *testing.T) {
	spec := shardEquivSpec()
	var work uint64
	for _, sc := range shardCounts {
		spec.Shards = sc
		r, err := runOne(spec, cluster.ATC, false)
		if err != nil {
			t.Fatalf("shards=%d: build: %v", sc, err)
		}
		if !r.completed {
			t.Fatalf("shards=%d: measured runs incomplete (rounds %v)", sc, r.runRounds)
		}
		st := r.sync
		t.Logf("shards=%d: work=%d span=%d segments=%d (work/span %.2f)",
			sc, st.WorkEvents, st.SpanEvents, st.Segments, float64(st.WorkEvents)/float64(st.SpanEvents))
		if st.WorkEvents != r.executed {
			t.Errorf("shards=%d: WorkEvents=%d, world executed %d", sc, st.WorkEvents, r.executed)
		}
		if sc == shardCounts[0] {
			work = st.WorkEvents
			if st.SpanEvents != st.WorkEvents {
				t.Errorf("shards=%d: SpanEvents=%d, want WorkEvents=%d", sc, st.SpanEvents, st.WorkEvents)
			}
			continue
		}
		if st.WorkEvents != work {
			t.Errorf("shards=%d: WorkEvents=%d, want %d as at %d shard", sc, st.WorkEvents, work, shardCounts[0])
		}
		if st.SpanEvents > st.WorkEvents {
			t.Errorf("shards=%d: SpanEvents=%d exceeds WorkEvents=%d", sc, st.SpanEvents, st.WorkEvents)
		}
	}
}

// TestShardEquivalenceGenerated extends the pinned check to generated
// scenarios: several seeds, each forced through every shard count, each
// a different primary approach. Shard counts above the node count clamp
// inside the world builder, so small worlds still run rather than skip.
func TestShardEquivalenceGenerated(t *testing.T) {
	approaches := cluster.ExtendedApproaches()
	for seed := uint64(1); seed <= 4; seed++ {
		spec := Generate(seed, Bounded())
		approach := Primary(spec, approaches)
		ref := shardFingerprint(t, spec, approach, shardCounts[0])
		for _, sc := range shardCounts[1:] {
			if got := shardFingerprint(t, spec, approach, sc); got != ref {
				t.Errorf("seed=%d shards=%d (%s): fingerprint diverged at byte %d of %d/%d",
					seed, sc, approach, diffAt(ref, got), len(ref), len(got))
			}
		}
	}
}
