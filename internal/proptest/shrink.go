package proptest

import (
	"atcsched/internal/fault"
	"atcsched/internal/scenario"
)

// shrinkAttempts bounds the total candidate re-runs one Shrink performs;
// each candidate costs a full battery run, so the budget is modest.
const shrinkAttempts = 48

// Shrink greedily minimizes a failing Spec: it tries dropping tenants,
// halving every size knob and clearing the scheduler overrides, keeping
// each candidate on which check still fails, until a full pass makes no
// progress or the attempt budget runs out. check must report the
// original failure class as a non-nil error.
func Shrink(spec Spec, check func(Spec) error) Spec {
	attempts := 0
	for attempts < shrinkAttempts {
		improved := false
		for _, cand := range candidates(spec) {
			attempts++
			if check(cand) != nil {
				spec = cand
				improved = true
				break
			}
			if attempts >= shrinkAttempts {
				break
			}
		}
		if !improved {
			break
		}
	}
	return spec
}

// candidates returns one-step reductions of s, cheapest wins first:
// structural drops before size halvings before option clearing.
func candidates(s Spec) []Spec {
	var out []Spec
	if len(s.VirtualClusters) > 1 {
		for i := range s.VirtualClusters {
			c := clone(s)
			c.VirtualClusters = append(c.VirtualClusters[:i:i], c.VirtualClusters[i+1:]...)
			out = append(out, c)
		}
	}
	for i := range s.Jobs {
		c := clone(s)
		c.Jobs = append(c.Jobs[:i:i], c.Jobs[i+1:]...)
		out = append(out, c)
	}
	if s.Faults != nil {
		for i := range s.Faults.Windows {
			c := clone(s)
			c.Faults.Windows = append(c.Faults.Windows[:i:i], c.Faults.Windows[i+1:]...)
			if len(c.Faults.Windows) == 0 {
				c.Faults = nil
			}
			out = append(out, c)
		}
	}
	if s.Nodes > 1 {
		c := clone(s)
		c.Nodes = halve(c.Nodes)
		rehome(&c)
		out = append(out, c)
	}
	if s.PCPUsPerNode > 1 {
		c := clone(s)
		c.PCPUsPerNode = halve(c.PCPUsPerNode)
		out = append(out, c)
	}
	for i := range s.VirtualClusters {
		for _, f := range []func(*scenario.VCSpec){
			func(c *scenario.VCSpec) { c.VMs = halve(c.VMs) },
			func(c *scenario.VCSpec) { c.VCPUs = halve(c.VCPUs) },
			func(c *scenario.VCSpec) { c.Rounds = halve(c.Rounds) },
			func(c *scenario.VCSpec) { c.Iterations = halve(c.Iterations) },
		} {
			c := clone(s)
			before := c.VirtualClusters[i]
			f(&c.VirtualClusters[i])
			if c.VirtualClusters[i] != before {
				out = append(out, c)
			}
		}
	}
	if s.Scheduler.FixedSliceMs != 0 {
		c := clone(s)
		c.Scheduler.FixedSliceMs = 0
		out = append(out, c)
	}
	if s.Scheduler.DisableBoost || s.Scheduler.DisableSteal {
		c := clone(s)
		c.Scheduler.DisableBoost = false
		c.Scheduler.DisableSteal = false
		out = append(out, c)
	}
	if len(s.NodePolicies) > 0 {
		c := clone(s)
		c.NodePolicies = nil
		out = append(out, c)
	}
	if len(s.Switches) > 0 {
		c := clone(s)
		c.Switches = nil
		out = append(out, c)
	}
	if s.Faults != nil {
		c := clone(s)
		c.Faults = nil
		out = append(out, c)
	}
	// Shard count shrinks toward 1 (no concurrency) — isolating whether
	// a failure needs parallel shards at all.
	if s.Shards > 1 {
		c := clone(s)
		c.Shards = halve(c.Shards)
		out = append(out, c)
	}
	if s.Telemetry {
		c := clone(s)
		c.Telemetry = false
		out = append(out, c)
	}
	// The fleet side-world shrinks toward one node, then away entirely —
	// isolating whether a failure needs the fleet property at all.
	if s.FleetNodes > 1 {
		c := clone(s)
		c.FleetNodes = halve(c.FleetNodes)
		out = append(out, c)
	}
	if s.FleetNodes != 0 {
		c := clone(s)
		c.FleetNodes = 0
		out = append(out, c)
	}
	return out
}

// rehome fits s to its (reduced) node count: jobs, switch targets and
// fault scopes on dropped nodes move to the last node, and node-policy
// pins on dropped nodes are removed. s must already be a clone.
func rehome(s *Spec) {
	last := s.Nodes - 1
	fit := func(n *int) {
		if *n > last {
			*n = last
		}
	}
	for i := range s.Jobs {
		fit(&s.Jobs[i].Node)
		if p := s.Jobs[i].PeerNode; p != nil && *p > last {
			s.Jobs[i].PeerNode = &last
		}
	}
	for i := range s.Switches {
		for j := range s.Switches[i].Nodes {
			fit(&s.Switches[i].Nodes[j])
		}
	}
	if s.Faults != nil {
		for i := range s.Faults.Windows {
			for j := range s.Faults.Windows[i].Nodes {
				fit(&s.Faults.Windows[i].Nodes[j])
			}
		}
	}
	pins := s.NodePolicies[:0]
	for _, np := range s.NodePolicies {
		var kept []int
		for _, n := range np.Nodes {
			if n <= last {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			np.Nodes = kept
			pins = append(pins, np)
		}
	}
	s.NodePolicies = pins
}

// halve reduces n toward 1 without reaching 0.
func halve(n int) int {
	if n <= 1 {
		return n
	}
	return (n + 1) / 2
}

// clone deep-copies a Spec so mutations of the copy (candidate
// reductions, rehoming, the defaults scenario validation fills in) stay
// off the original.
func clone(s Spec) Spec {
	c := s
	c.VirtualClusters = append([]scenario.VCSpec(nil), s.VirtualClusters...)
	c.Jobs = append([]scenario.JobSpec(nil), s.Jobs...)
	c.NodePolicies = append([]scenario.NodePolicySpec(nil), s.NodePolicies...)
	for i := range c.NodePolicies {
		c.NodePolicies[i].Nodes = append([]int(nil), c.NodePolicies[i].Nodes...)
	}
	c.Switches = append([]scenario.SwitchSpec(nil), s.Switches...)
	for i := range c.Switches {
		c.Switches[i].Nodes = append([]int(nil), c.Switches[i].Nodes...)
	}
	if s.Faults != nil {
		f := fault.Spec{Seed: s.Faults.Seed}
		f.Windows = append([]fault.Window(nil), s.Faults.Windows...)
		for i := range f.Windows {
			f.Windows[i].Nodes = append([]int(nil), f.Windows[i].Nodes...)
			f.Windows[i].VMs = append([]int(nil), f.Windows[i].VMs...)
		}
		c.Faults = &f
	}
	return c
}
