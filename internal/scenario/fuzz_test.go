package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"atcsched/internal/sched/registry"
)

// FuzzScenarioJSON hammers the spec parser: Load must accept or reject
// cleanly — never panic, never hand Build a spec that allocates beyond
// the resource caps. When a fuzz input parses into a tiny world, Build
// it and audit the fresh world too. Run deep with
//
//	go test ./internal/scenario -fuzz=FuzzScenarioJSON -fuzztime=30s
func FuzzScenarioJSON(f *testing.F) {
	// Seed corpus: a minimal valid spec, each structural feature, and
	// the hardening edges (trailing data, huge numbers, unknown fields,
	// type confusion, truncation).
	f.Add(`{"nodes":1,"virtualClusters":[{"vms":1,"vcpus":1,"kernel":"ep","class":"A","rounds":1}]}`)
	f.Add(`{"nodes":2,"scheduler":{"kind":"ATC","fixedSliceMs":30},"seed":7,"horizonSec":60,
		"virtualClusters":[{"name":"a","vms":2,"vcpus":2,"kernel":"lu","class":"A","rounds":1},
		{"name":"b","kernel":"is","background":true}],
		"jobs":[{"type":"ping","node":0,"intervalMs":5},{"type":"cpu","node":1,"name":"gcc"}]}`)
	f.Add(`{"nodes":1,"jobs":[{"type":"web","node":0,"peerNode":0}]}`)
	f.Add(`{"nodes":2,"shards":2,"scheduler":{"kind":"CR","disableBoost":true,"disableSteal":true},
		"virtualClusters":[{"vms":2,"vcpus":2,"kernel":"ep","class":"A","rounds":1,"iterations":3}]}`)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"nodes":1e9,"virtualClusters":[{}]}`)
	f.Add(`{"nodes":1,"horizonSec":1e300,"virtualClusters":[{}]}`)
	f.Add(`{"nodes":1,"virtualClusters":[{"vcpus":-3}]}`)
	f.Add(`{"nodes":1,"virtualClusters":[{}]}{"nodes":2}`)
	f.Add(`{"nodes":1,"bogusField":true,"virtualClusters":[{}]}`)
	f.Add(`{"nodes":"one","virtualClusters":[{}]}`)
	f.Add(`{"nodes":1,"virtualClusters":[{"kernel":"lu"`)
	f.Add(`{"nodes":1,"scheduler":{"kind":"zen"},"virtualClusters":[{}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted specs must come back with defaults filled and inside
		// the caps — Validate is the only gate between JSON and NewWorld.
		if spec.Nodes < 1 || spec.Nodes > maxNodes {
			t.Fatalf("accepted nodes=%d", spec.Nodes)
		}
		if spec.HorizonSec <= 0 || spec.HorizonSec > maxHorizonSec {
			t.Fatalf("accepted horizonSec=%v", spec.HorizonSec)
		}
		if spec.Shards < 0 || spec.Shards > maxNodes {
			t.Fatalf("accepted shards=%d", spec.Shards)
		}
		small := spec.Nodes <= 2 && spec.PCPUsPerNode <= 4 && len(spec.Jobs) <= 2
		for _, vc := range spec.VirtualClusters {
			if vc.VMs < 1 || vc.VCPUs < 1 || vc.Rounds < 0 || vc.Iterations < 0 || vc.Iterations > maxIterations {
				t.Fatalf("accepted cluster sizing %+v", vc)
			}
			if vc.VMs > 2 || vc.VCPUs > 2 {
				small = false
			}
		}
		if !small || len(spec.VirtualClusters) > 2 {
			return
		}
		// Tiny world: building it must succeed and pass a full audit.
		res, err := Build(spec)
		if err != nil {
			t.Fatalf("validated spec failed to build: %v", err)
		}
		if errs := res.Scenario.World.Audit(); len(errs) > 0 {
			t.Fatalf("fresh world fails audit: %v", errs)
		}
	})
}

// FuzzSchedOptionsJSON hammers the policy-options half of the registry:
// for any (kind, options JSON) pair the resolver must accept or reject
// cleanly, an unknown kind must name every valid kind in its error, and
// an accepted decode must re-marshal byte-stably (parse → decode →
// marshal → decode → marshal is a fixed point). Seeds cover the DFRS family's
// fractional parameters, including out-of-range fractions that must be
// rejected. Run deep with
//
//	go test ./internal/scenario -fuzz=FuzzSchedOptionsJSON -fuzztime=30s
func FuzzSchedOptionsJSON(f *testing.F) {
	f.Add("DFRS", `{"minFraction": 0.05, "redistributePeriods": 3}`)
	f.Add("DFRS", `{"credit": {"timeSliceMs": 10}, "minQuantum": "2ms"}`)
	f.Add("DFRS", `{"nonWorkConserving": true, "smoothing": 0.25}`)
	f.Add("ATCDFRS", `{"dfrs": {"dom0Fraction": 0.1}, "control": {"alpha": "9ms"}}`)
	f.Add("ATCDFRS", `{"noiseFloor": "1ms"}`)
	// Invalid fractions: must be rejected, never panic.
	f.Add("DFRS", `{"minFraction": -1}`)
	f.Add("DFRS", `{"minFraction": 0.9}`)
	f.Add("DFRS", `{"smoothing": 2}`)
	f.Add("DFRS", `{"dom0Fraction": 1.5}`)
	f.Add("ATCDFRS", `{"dfrs": {"smoothing": -0.5}}`)
	// Structural edges.
	f.Add("ATC", `{"control": {"alpha": "5ms"}}`)
	f.Add("CR", ``)
	f.Add("zen", `{}`)
	f.Add("", `null`)
	f.Add("DFRS", `{"bogus": 1}`)
	f.Add("DFRS", `{"minFraction": "lots"}`)
	f.Add("DFRS", `{"minFraction": 0.1}{"trailing": true}`)
	// An explicit false must survive the round trip, not revert to the
	// true default.
	f.Add("CR", `{"boost": false}`)
	f.Fuzz(func(t *testing.T, kind, opts string) {
		var raw json.RawMessage
		if opts != "" {
			raw = json.RawMessage(opts)
		}
		d, known := registry.Lookup(kind)
		if !known {
			err := registry.Validate(kind, raw)
			if err == nil {
				t.Fatalf("unknown kind %q accepted", kind)
			}
			// The error must enumerate every registered kind, sorted —
			// the caller's typo is diagnosable from the message alone.
			if want := strings.Join(registry.Kinds(), ", "); !strings.Contains(err.Error(), want) {
				t.Fatalf("unknown-kind error %q does not list the valid kinds %q", err, want)
			}
			return
		}
		if err := registry.Validate(kind, raw); err != nil {
			return
		}
		merged, err := d.Options(raw)
		if err != nil {
			t.Fatalf("%s: options validated but failed to merge: %v", kind, err)
		}
		b1, err := json.Marshal(merged)
		if err != nil {
			t.Fatalf("%s: merged options do not marshal: %v", kind, err)
		}
		if err := registry.Validate(kind, json.RawMessage(b1)); err != nil {
			t.Fatalf("%s: re-marshaled options %s no longer validate: %v", kind, b1, err)
		}
		again, err := d.Options(json.RawMessage(b1))
		if err != nil {
			t.Fatalf("%s: re-merge of %s failed: %v", kind, b1, err)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("%s: options round trip unstable:\n%s\n%s", kind, b1, b2)
		}
	})
}
