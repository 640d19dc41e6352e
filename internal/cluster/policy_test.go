package cluster

import (
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
)

func TestNodePoliciesHeterogeneousCluster(t *testing.T) {
	cfg := DefaultConfig(3, CR)
	cfg.Node.PCPUs = 2
	cfg.Node.Dom0VCPUs = 1
	cfg.NodePolicies = map[int]SchedSpec{
		1: {Kind: ATC},
		2: {Kind: CS},
	}
	s := MustNew(cfg)
	for i, want := range []string{"CR", "ATC", "CS"} {
		if got := s.World.Node(i).Scheduler().Name(); got != want {
			t.Errorf("node %d scheduler = %s, want %s", i, got, want)
		}
	}
}

func TestNodePolicyErrors(t *testing.T) {
	cfg := DefaultConfig(2, CR)
	cfg.NodePolicies = map[int]SchedSpec{5: {Kind: ATC}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range node policy accepted")
	}
	cfg.NodePolicies = map[int]SchedSpec{0: {Kind: Approach("XX")}}
	if _, err := New(cfg); err == nil {
		t.Error("unknown node policy kind accepted")
	}
}

// TestUnknownApproachErrorListsKinds pins the cluster-layer error
// format: the message enumerates every registered policy.
func TestUnknownApproachErrorListsKinds(t *testing.T) {
	_, err := New(DefaultConfig(1, Approach("XX")))
	if err == nil {
		t.Fatal("unknown approach accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"XX"`) {
		t.Errorf("error %q does not quote the bad kind", msg)
	}
	for _, k := range registry.Kinds() {
		if !strings.Contains(msg, k) {
			t.Errorf("error %q does not list valid kind %s", msg, k)
		}
	}
}

// TestATCPartialOptionsPreserved pins the options contract at the
// cluster level: a Go options struct is the whole configuration, so a
// partial one (just α) is refused rather than filled in, and
// DefaultOptions() with α changed keeps every other default.
func TestATCPartialOptionsPreserved(t *testing.T) {
	cfg := DefaultConfig(1, ATC)
	cfg.Sched.Options = atc.Options{Control: core.Params{Alpha: 9 * sim.Millisecond}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "credit: time slice must be positive") {
		t.Errorf("partial options struct: err = %v, want the credit time-slice refusal", err)
	}
	opts := atc.DefaultOptions()
	opts.Control.Alpha = 9 * sim.Millisecond
	cfg.Sched.Options = opts
	s := MustNew(cfg)
	sched := s.World.Node(0).Scheduler().(*atc.Scheduler)
	want := core.DefaultConfig()
	want.Alpha = 9 * sim.Millisecond
	if got := sched.Controller().Config(); got != want {
		t.Errorf("controller config = %+v, want %+v", got, want)
	}
	if got, def := sched.Options(), atc.DefaultOptions().Credit; got != def {
		t.Errorf("credit options = %+v, want the defaults %+v", got, def)
	}
}

// TestApproachesMatchRegistry keeps the facade lists and the registry in
// sync: the compared set is ordered and HY is the only extension.
func TestApproachesMatchRegistry(t *testing.T) {
	want := []Approach{CR, BS, CS, DSS, VS, ATC}
	got := Approaches()
	if len(got) != len(want) {
		t.Fatalf("Approaches() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Approaches() = %v, want %v", got, want)
		}
	}
	// Extensions follow the compared set in sorted-kind order.
	ext := ExtendedApproaches()
	wantExt := append(append([]Approach{}, want...), ATCDFRS, DFRS, HY)
	if len(ext) != len(wantExt) {
		t.Fatalf("ExtendedApproaches() = %v, want %v", ext, wantExt)
	}
	for i := range wantExt {
		if ext[i] != wantExt[i] {
			t.Fatalf("ExtendedApproaches() = %v, want %v", ext, wantExt)
		}
	}
}
