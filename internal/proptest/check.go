package proptest

import (
	"fmt"
	"strings"

	"atcsched/internal/cluster"
	"atcsched/internal/scenario"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/vmm"
)

// auditEvery is the virtual-time interval between mid-run audits.
const auditEvery = 25 * sim.Millisecond

// traceCap bounds the scheduling records each node retains for the
// determinism fingerprint; evicted records still contribute to it
// through the drop counter.
const traceCap = 50000

// result captures everything the battery measures for one approach on
// one Spec.
type result struct {
	approach  cluster.Approach
	completed bool
	// clusters are the Spec's virtual clusters as the built scenario saw
	// them, defaults filled.
	clusters []scenario.VCSpec
	// runRounds, clusterSent and clusterRounds are indexed like
	// clusters: completed run rounds, packets posted by the cluster's
	// VMs, and summed per-VCPU process rounds.
	runRounds     []int
	clusterSent   []uint64
	clusterRounds []uint64
	// stateErrs are liveness violations observed on parallel VCPUs after
	// the run (non-idle or spinning).
	stateErrs []string
	// auditViols are the violations the periodic audit hook retained;
	// finalAudit is one more full audit of the end state.
	auditViols []error
	finalAudit []error
	// auditTimes are the virtual times the hook observed, in call order —
	// the clock-monotonicity witness.
	auditTimes []sim.Time
	// endTime, swaps and period witness the live-switch property:
	// per-node applied-swap counts at the end of the run, the virtual end
	// time, and the scheduling period (swaps apply at period boundaries).
	endTime sim.Time
	swaps   []uint64
	period  sim.Time
	// fingerprint is set only for traced runs: result stats plus the
	// rendered scheduling trace, compared byte-for-byte across replays.
	fingerprint string
	// executed and sync are the world's event count and shard-group
	// counters at the end of the run.
	executed uint64
	sync     sim.SyncStats
}

// runOne builds the Spec's world under one approach, drives it to
// completion (or the horizon) and collects the battery's observables.
// With traced set the world records scheduling events (into the
// telemetry plane when the Spec attaches one, so that run records and
// publishes metrics; into a record-only plane otherwise) and the full
// fingerprint is rendered.
func runOne(spec Spec, approach cluster.Approach, traced bool) (*result, error) {
	w := clone(spec)
	w.Scheduler.Kind = string(approach)
	built, err := scenario.Build(&w.Spec)
	if err != nil {
		return nil, err
	}
	s := built.Scenario
	res := &result{approach: approach, clusters: w.VirtualClusters}
	s.Cfg.AuditEvery = auditEvery
	s.Cfg.OnAudit = func(at sim.Time, errs []error) {
		res.auditTimes = append(res.auditTimes, at)
	}
	plane := telemetry.New(telemetry.Options{RecordCap: traceCap})
	if spec.Telemetry {
		// Instrumented runs must fingerprint identically to bare ones:
		// the battery attaches a full plane and otherwise changes nothing.
		s.World.SetTelemetry(plane)
	}
	if traced {
		s.World.SetRecording(plane)
	}
	res.completed = s.Go(sim.FromSeconds(w.HorizonSec))
	// Exercise the end-of-run telemetry publication too (no-op when the
	// spec did not attach a plane); it must never disturb the world.
	s.FinalizeTelemetry()
	for i, run := range s.Runs() {
		res.runRounds = append(res.runRounds, run.Rounds())
		var sent, rounds uint64
		for _, vm := range run.App.VMs {
			sent += vm.PacketsSent()
			for _, v := range vm.VCPUs() {
				rounds += v.Rounds()
				if st := v.State(); st != vmm.StateIdle {
					res.stateErrs = append(res.stateErrs,
						fmt.Sprintf("cluster %d: vcpu %v left %v", i, v, st))
				}
				if v.Spinning() {
					res.stateErrs = append(res.stateErrs,
						fmt.Sprintf("cluster %d: vcpu %v left spinning", i, v))
				}
			}
		}
		res.clusterSent = append(res.clusterSent, sent)
		res.clusterRounds = append(res.clusterRounds, rounds)
	}
	res.auditViols = s.AuditViolations()
	res.finalAudit = s.World.Audit()
	res.endTime = s.World.Now()
	res.executed = s.World.Executed()
	res.sync = s.World.SyncStats()
	res.period = s.Cfg.Node.SchedPeriod
	for _, n := range s.World.Nodes() {
		res.swaps = append(res.swaps, n.Swaps())
	}
	if traced {
		res.fingerprint = s.Fingerprint()
	}
	return res, nil
}

// check evaluates the single-approach properties: liveness, audit
// cleanliness, clock monotonicity, analytic packet conservation and
// live-switch application.
func (r *result) check(spec Spec) error {
	if !r.completed {
		return fmt.Errorf("liveness: measured runs incomplete after horizon %vs (rounds %v)",
			spec.HorizonSec, r.runRounds)
	}
	for i, c := range r.clusters {
		if r.runRounds[i] != c.Rounds {
			return fmt.Errorf("liveness: cluster %d completed %d rounds, want %d",
				i, r.runRounds[i], c.Rounds)
		}
		wantSent := uint64(c.Rounds) * c.Profile().MessagesPerRound(c.VMs, c.VCPUs)
		if r.clusterSent[i] != wantSent {
			return fmt.Errorf("conservation: cluster %d posted %d packets, analytic count %d",
				i, r.clusterSent[i], wantSent)
		}
		wantRounds := uint64(c.Rounds) * uint64(c.VMs) * uint64(c.VCPUs)
		if r.clusterRounds[i] != wantRounds {
			return fmt.Errorf("conservation: cluster %d retired %d process rounds, want %d",
				i, r.clusterRounds[i], wantRounds)
		}
	}
	if len(r.stateErrs) > 0 {
		return fmt.Errorf("liveness: %s", strings.Join(r.stateErrs, "; "))
	}
	if len(r.auditViols) > 0 {
		return fmt.Errorf("audit: %d mid-run violations, first: %v", len(r.auditViols), r.auditViols[0])
	}
	if len(r.finalAudit) > 0 {
		return fmt.Errorf("audit: final state: %v", r.finalAudit[0])
	}
	for i := 1; i < len(r.auditTimes); i++ {
		if r.auditTimes[i] < r.auditTimes[i-1] {
			return fmt.Errorf("clock: audit time regressed %v -> %v",
				r.auditTimes[i-1], r.auditTimes[i])
		}
	}
	// Swaps apply at each node's next period boundary; phase stagger
	// keeps boundaries within one period of each other, so a switch is
	// due on its nodes two periods past the request. Requests less than a
	// period apart may land as one swap, so a node with switches due
	// must have applied at least one.
	due := make([]int, len(r.swaps))
	for _, sw := range spec.Switches {
		if r.endTime < sim.FromSeconds(sw.AtSec)+2*r.period {
			continue
		}
		if len(sw.Nodes) == 0 {
			for i := range due {
				due[i]++
			}
		}
		for _, n := range sw.Nodes {
			due[n]++
		}
	}
	for i, n := range r.swaps {
		if due[i] > 0 && n == 0 {
			return fmt.Errorf("switch: node %d applied none of its %d due policy switches (ran to %v)",
				i, due[i], r.endTime)
		}
	}
	return nil
}

// sameWork compares the logical work two approaches completed on the
// same Spec — the differential property. Timing may differ; rounds and
// packet counts may not.
func (r *result) sameWork(ref *result) error {
	for i := range r.runRounds {
		if r.runRounds[i] != ref.runRounds[i] {
			return fmt.Errorf("differential: cluster %d rounds %d under %s vs %d under %s",
				i, r.runRounds[i], r.approach, ref.runRounds[i], ref.approach)
		}
		if r.clusterSent[i] != ref.clusterSent[i] {
			return fmt.Errorf("differential: cluster %d packets %d under %s vs %d under %s",
				i, r.clusterSent[i], r.approach, ref.clusterSent[i], ref.approach)
		}
		if r.clusterRounds[i] != ref.clusterRounds[i] {
			return fmt.Errorf("differential: cluster %d process rounds %d under %s vs %d under %s",
				i, r.clusterRounds[i], r.approach, ref.clusterRounds[i], ref.approach)
		}
	}
	return nil
}

// Primary returns the approach whose run is traced and replayed for the
// determinism property — seed-derived so the sweep spreads the replay
// cost across all approaches.
func Primary(spec Spec, approaches []cluster.Approach) cluster.Approach {
	return approaches[int(spec.Seed%uint64(len(approaches)))]
}

// CheckSpec runs the full property battery on spec: under every
// approach the world must complete all measured work, pass periodic and
// final audits, keep the audited clock monotone, leave no parallel VCPU
// spinning or non-idle, and post exactly the analytic packet count; all
// approaches must complete identical logical work; and the primary
// approach must replay byte-identically. The returned error describes
// the first violated property.
func CheckSpec(spec Spec, approaches []cluster.Approach) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(approaches) == 0 {
		return fmt.Errorf("proptest: no approaches")
	}
	primary := Primary(spec, approaches)
	var ref *result
	var primaryFP string
	for _, a := range approaches {
		r, err := runOne(spec, a, a == primary)
		if err != nil {
			return fmt.Errorf("%s: build: %w", a, err)
		}
		if err := r.check(spec); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		if ref == nil {
			ref = r
		} else if err := r.sameWork(ref); err != nil {
			return err
		}
		if a == primary {
			primaryFP = r.fingerprint
		}
	}
	replay, err := runOne(spec, primary, true)
	if err != nil {
		return fmt.Errorf("%s: replay build: %w", primary, err)
	}
	if replay.fingerprint != primaryFP {
		return fmt.Errorf("determinism: %s replay diverged (fingerprints differ at byte %d of %d/%d)",
			primary, diffAt(primaryFP, replay.fingerprint), len(primaryFP), len(replay.fingerprint))
	}
	if spec.FleetNodes > 0 {
		if err := checkFleetKillRestore(spec); err != nil {
			return err
		}
	}
	return nil
}

// diffAt returns the index of the first differing byte.
func diffAt(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
