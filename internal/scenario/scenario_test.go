package scenario

import (
	"strings"
	"testing"
)

const goodSpec = `{
  "nodes": 2,
  "pcpusPerNode": 4,
  "scheduler": {"kind": "ATC"},
  "seed": 7,
  "horizonSec": 300,
  "virtualClusters": [
    {"name": "vc1", "vms": 2, "vcpus": 4, "kernel": "is", "class": "A", "rounds": 2}
  ],
  "jobs": [
    {"type": "web", "node": 0},
    {"type": "ping", "node": 0, "intervalMs": 5},
    {"type": "disk", "node": 1},
    {"type": "stream", "node": 1},
    {"type": "cpu", "name": "gcc", "node": 0}
  ]
}`

func TestLoadAndRunEndToEnd(t *testing.T) {
	spec, err := Load(strings.NewReader(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"vc1", "mean exec", "web", "ping", "disk", "stream", "gcc"} {
		if !strings.Contains(out, want) {
			t.Errorf("result table missing %q:\n%s", want, out)
		}
	}
	res.Scenario.World.MustAudit()
}

func TestDefaultsFilled(t *testing.T) {
	spec, err := Load(strings.NewReader(`{"nodes": 2, "scheduler": {}, "virtualClusters": [{}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vc := spec.VirtualClusters[0]
	if vc.Name != "vc0" || vc.VMs != 2 || vc.VCPUs != 8 || vc.Kernel != "lu" || vc.Class != "B" || vc.Rounds != 3 {
		t.Errorf("defaults = %+v", vc)
	}
	if spec.Scheduler.Kind != "ATC" || spec.Seed != 1 || spec.HorizonSec != 1200 {
		t.Errorf("spec defaults = %+v", spec)
	}
}

func TestJobsOnlyScenarioRunsFixedWindow(t *testing.T) {
	spec, err := Load(strings.NewReader(`{
	  "nodes": 1, "pcpusPerNode": 2,
	  "scheduler": {"kind": "CR"},
	  "jobs": [{"type": "disk", "node": 0}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := res.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "MB/s") {
		t.Errorf("no throughput row:\n%s", table.String())
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]string{
		"zero nodes":      `{"nodes": 0, "scheduler": {}, "virtualClusters": [{}]}`,
		"bad scheduler":   `{"nodes": 1, "scheduler": {"kind": "ZZ"}, "virtualClusters": [{}]}`,
		"bad kernel":      `{"nodes": 1, "scheduler": {}, "virtualClusters": [{"kernel": "nope"}]}`,
		"bad class":       `{"nodes": 1, "scheduler": {}, "virtualClusters": [{"class": "Z"}]}`,
		"dup name":        `{"nodes": 1, "scheduler": {}, "virtualClusters": [{"name":"a"},{"name":"a"}]}`,
		"empty":           `{"nodes": 1, "scheduler": {}}`,
		"bad job type":    `{"nodes": 1, "scheduler": {}, "jobs": [{"type": "teleport", "node": 0}]}`,
		"job node range":  `{"nodes": 1, "scheduler": {}, "jobs": [{"type": "disk", "node": 5}]}`,
		"bad cpu profile": `{"nodes": 1, "scheduler": {}, "jobs": [{"type": "cpu", "name": "rustc", "node": 0}]}`,
		"unknown field":   `{"nodes": 1, "scheduler": {}, "frobnicate": 1, "virtualClusters": [{}]}`,
		"neg slice":       `{"nodes": 1, "scheduler": {"fixedSliceMs": -2}, "virtualClusters": [{}]}`,
		"bad fault kind":  `{"nodes": 1, "scheduler": {}, "virtualClusters": [{}], "faults": {"windows": [{"kind": "meteor", "durSec": 1}]}}`,
		"fault node":      `{"nodes": 1, "scheduler": {}, "virtualClusters": [{}], "faults": {"windows": [{"kind": "pcpu-slow", "durSec": 1, "nodes": [3]}]}}`,
		"fault severity":  `{"nodes": 1, "scheduler": {}, "virtualClusters": [{}], "faults": {"windows": [{"kind": "packet-loss", "durSec": 1, "severity": 2}]}}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuildThreadsHarnessFields pins the fields the property harness
// drives worlds with: iterations reach the cluster's profile, shards and
// the credit-core toggles reach the cluster config, and out-of-range
// shard and iteration counts are rejected.
func TestBuildThreadsHarnessFields(t *testing.T) {
	spec, err := Load(strings.NewReader(`{"nodes": 2, "shards": 2,
	  "scheduler": {"kind": "CR", "disableBoost": true, "disableSteal": true},
	  "virtualClusters": [{"vcpus": 2, "kernel": "ep", "class": "A", "rounds": 1, "iterations": 3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scenario.Runs()[0].App.Profile.Iterations; got != 3 {
		t.Errorf("profile iterations = %d, want 3", got)
	}
	if cfg := res.Scenario.Cfg; cfg.Shards != 2 || !cfg.Sched.DisableBoost || !cfg.Sched.DisableSteal {
		t.Errorf("cfg shards=%d disableBoost=%v disableSteal=%v, want 2/true/true",
			cfg.Shards, cfg.Sched.DisableBoost, cfg.Sched.DisableSteal)
	}
	for name, mut := range map[string]func(*Spec){
		"negative shards":     func(s *Spec) { s.Shards = -1 },
		"huge shards":         func(s *Spec) { s.Shards = maxNodes + 1 },
		"negative iterations": func(s *Spec) { s.VirtualClusters[0].Iterations = -1 },
		"huge iterations":     func(s *Spec) { s.VirtualClusters[0].Iterations = maxIterations + 1 },
	} {
		bad := Spec{Nodes: 1, VirtualClusters: []VCSpec{{}}}
		mut(&bad)
		if _, err := Build(&bad); err == nil {
			t.Errorf("%s: Build accepted %+v", name, bad)
		}
	}
}

func TestHYSchedulerAccepted(t *testing.T) {
	spec, err := Load(strings.NewReader(`{"nodes": 1, "scheduler": {"kind": "HY"}, "virtualClusters": [{"vcpus": 2, "kernel": "ep", "class": "A", "rounds": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scenario.World.Node(0).Scheduler().Name(); got != "HY" {
		t.Errorf("scheduler = %q", got)
	}
}

func TestLoadRejectsResourceBombs(t *testing.T) {
	// Regressions from FuzzScenarioJSON hardening: each of these used to
	// slip past Validate and reach NewWorld (allocation bombs, an int64
	// overflow of the virtual clock) or be silently ignored.
	cases := map[string]string{
		"huge nodes":     `{"nodes":1000000000,"virtualClusters":[{}]}`,
		"huge pcpus":     `{"nodes":1,"pcpusPerNode":100000,"virtualClusters":[{}]}`,
		"negative pcpus": `{"nodes":1,"pcpusPerNode":-8,"virtualClusters":[{}]}`,
		"huge horizon":   `{"nodes":1,"horizonSec":1e300,"virtualClusters":[{}]}`,
		"huge slice":     `{"nodes":1,"scheduler":{"fixedSliceMs":1e12},"virtualClusters":[{}]}`,
		"huge vms":       `{"nodes":1,"virtualClusters":[{"vms":1000000}]}`,
		"huge vcpus":     `{"nodes":1,"virtualClusters":[{"vcpus":1000000}]}`,
		"huge rounds":    `{"nodes":1,"virtualClusters":[{"rounds":100000000}]}`,
		"huge interval":  `{"nodes":1,"jobs":[{"type":"ping","node":0,"intervalMs":1e9}]}`,
		"trailing data":  `{"nodes":1,"virtualClusters":[{}]}{"nodes":2}`,
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %s", name, src)
		}
	}
}
