package atcsched

// One benchmark per paper artifact: each regenerates the corresponding
// table/figure at the "small" scale and reports simulator throughput
// alongside the standard testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// exercises the entire reproduction pipeline. The ablation benchmarks at
// the bottom quantify the design choices DESIGN.md calls out (minimum
// slice clamp, node-level minimum, boost, stealing).

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"atcsched/internal/cluster"
	"atcsched/internal/experiment"
	"atcsched/internal/rng"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// A fixed seed keeps runs deterministic; figures 12-14 share one
		// memoized scenario per (scale, seed), which is exactly how the
		// CLI regenerates them too.
		tables, err := e.Run(experiment.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkEuclid(b *testing.B) { benchExperiment(b, "euclid") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkEngineEventThroughput measures pure event-queue churn — the
// simulator's innermost hot path — in isolation: a self-perpetuating
// population of events with pseudorandom delays, plus a cancel every
// eighth firing to exercise mid-heap removal and the free list. It
// reports steady-state allocations (should be ~0 thanks to event
// recycling) and events per wall-clock second, so heap and pooling
// changes are measurable without running a whole scenario.
func BenchmarkEngineEventThroughput(b *testing.B) {
	src := rng.New(1)
	benchEngineChurn(b, func() sim.Time { return sim.Time(1+src.Intn(1000)) * sim.Microsecond })
}

// BenchmarkEngineDeferralMix is the same churn with the vmm's reschedule
// mix: about half of all reschedules are zero-delay deferrals, which take
// the engine's same-instant lane instead of the heap, here through
// pooled events (Schedule(0, …)).
func BenchmarkEngineDeferralMix(b *testing.B) {
	benchEngineChurn(b, deferralMixDelay())
}

// BenchmarkEngineTimerDeferMix is the DeferralMix churn on the paths the
// vmm takes: zero-delay reschedules go through Defer (as PCPU dispatch,
// VCPU steps and Node.kick do) and the others re-arm the firing event's
// own Timer, which every eighth firing disarms and re-arms (as a PCPU
// does its slice and step timers).
func BenchmarkEngineTimerDeferMix(b *testing.B) {
	delay := deferralMixDelay()
	eng := sim.New()
	type agent struct {
		t  sim.Timer
		fn func()
	}
	agents := make([]agent, churnOutstanding)
	budget := b.N
	// Each agent has exactly one event outstanding: its timer or one
	// deferral.
	resched := func(a *agent) {
		if d := delay(); d == 0 {
			eng.Defer(a.fn)
		} else {
			eng.Arm(&a.t, eng.Now()+d, a.fn)
		}
	}
	for i := range agents {
		a := &agents[i]
		a.fn = func() {
			if budget <= 0 {
				return
			}
			budget--
			resched(a)
			if budget%8 == 0 && a.t.Armed() {
				eng.Disarm(&a.t)
				resched(a)
			}
		}
		resched(a)
	}
	runChurn(b, eng)
}

// deferralMixDelay returns the DeferralMix delay source: zero half of
// the time, else 1–1000 µs.
func deferralMixDelay() func() sim.Time {
	src := rng.New(1)
	return func() sim.Time {
		if src.Intn(2) == 0 {
			return 0
		}
		return sim.Time(1+src.Intn(1000)) * sim.Microsecond
	}
}

// churnOutstanding is the number of events the engine churns keep
// outstanding.
const churnOutstanding = 512

// benchEngineChurn keeps churnOutstanding events outstanding, each firing
// reschedules itself delay() ahead, and every eighth firing also cancels
// that event and schedules a replacement.
func benchEngineChurn(b *testing.B, delay func() sim.Time) {
	eng := sim.New()
	budget := b.N
	var churn func()
	churn = func() {
		if budget <= 0 {
			return
		}
		budget--
		h := eng.Schedule(delay(), churn)
		if budget%8 == 0 {
			// Cancel-and-replace: exercises removal from arbitrary slots.
			eng.Cancel(h)
			eng.Schedule(delay(), churn)
		}
	}
	for i := 0; i < churnOutstanding; i++ {
		eng.Schedule(delay(), churn)
	}
	runChurn(b, eng)
}

// runChurn runs a primed churn to completion as the timed part of b and
// reports events/s and ns/event.
func runChurn(b *testing.B, eng *sim.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	eng.Run()
	elapsed := time.Since(start)
	if n := eng.Executed(); n > 0 && elapsed > 0 {
		b.ReportMetric(float64(n)/elapsed.Seconds(), "events/s")
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(n), "ns/event")
	}
}

// BenchmarkWorldHollowRing measures the sharded engine on the scale
// harness's world: 1,024 hollow nodes (cluster.HollowConfig, one
// hollow-ring VM each) simulated for 20 ms at 1 and 2 worker goroutines.
// Only the run is timed, not building the world; it reports ns/event,
// where the per-node event heaps and the window barrier show.
func BenchmarkWorldHollowRing(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := cluster.HollowConfig(1024, cluster.CR)
				cfg.Shards = workers
				s, err := cluster.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.RunBackground(workload.HollowRing(), s.VirtualCluster("hollow", 1024, 1, nil))
				b.StartTimer()
				start := time.Now()
				s.GoFor(20 * sim.Millisecond)
				elapsed += time.Since(start)
				events += s.World.Executed()
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// benchScenario runs one type-A scenario and reports simulated events
// per second — the simulator's own throughput figure.
func benchScenario(b *testing.B, cfg cluster.Config, kernel string) float64 {
	b.Helper()
	var lastMean float64
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prof := workload.NPB(kernel, workload.ClassB)
		prof.Iterations = 8
		var runs []*workload.ParallelRun
		for vc := 0; vc < 4; vc++ {
			vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, 8, nil)
			runs = append(runs, s.RunParallel(prof, vms, 2, false))
		}
		if !s.Go(1200 * sim.Second) {
			b.Fatal("horizon exceeded")
		}
		var mean float64
		for _, r := range runs {
			mean += r.MeanTime()
		}
		lastMean = mean / float64(len(runs))
		events += s.World.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	return lastMean
}

// BenchmarkSimulatorCR/ATC measure raw simulation throughput under the
// baseline and the contributed scheduler.
func BenchmarkSimulatorCR(b *testing.B) {
	mean := benchScenario(b, cluster.DefaultConfig(2, cluster.CR), "lu")
	b.ReportMetric(mean, "simexec_s")
}

func BenchmarkSimulatorATC(b *testing.B) {
	mean := benchScenario(b, cluster.DefaultConfig(2, cluster.ATC), "lu")
	b.ReportMetric(mean, "simexec_s")
}

// benchTelemetry is benchScenario's type-A workload with the telemetry
// plane attached or detached, reporting ns/event so the disabled cost
// compares directly against the recorded pre-telemetry baseline.
func benchTelemetry(b *testing.B, instrumented bool) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := cluster.DefaultConfig(2, cluster.CR)
		cfg.Seed = uint64(i + 1)
		if instrumented {
			cfg.Telemetry = telemetry.New(telemetry.Options{})
		}
		s, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prof := workload.NPB("lu", workload.ClassB)
		prof.Iterations = 8
		for vc := 0; vc < 4; vc++ {
			vms := s.VirtualCluster(fmt.Sprintf("vc%d", vc), cfg.Nodes, 8, nil)
			s.RunParallel(prof, vms, 2, false)
		}
		if !s.Go(1200 * sim.Second) {
			b.Fatal("horizon exceeded")
		}
		if instrumented {
			s.FinalizeTelemetry()
		}
		events += s.World.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

// BenchmarkTelemetryDisabledOverhead pins the telemetry plane's
// determinism-path tax: with no plane attached (the default for every
// measurement run) the only additions on the hot path are two counter
// increments, one slice store and nil checks, so ns/event must stay
// within ~2% of the pre-telemetry BenchmarkSimulatorCR baseline
// (BENCH_parallel.json). The enabled variant quantifies the full
// instrumented cost for comparison.
func BenchmarkTelemetryDisabledOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchTelemetry(b, false) })
	b.Run("enabled", func(b *testing.B) { benchTelemetry(b, true) })
}

// --- Exporter layer ------------------------------------------------------

// exporterNodes is atcd -nodes 32's node count: with the global registry
// the plane holds 33 registries.
const exporterNodes = 32

// exporterSpanCounts are the fixed span counts the exporter benchmarks
// run at; atcd-loop's plane holds about 10^5 spans by its last scrape.
var exporterSpanCounts = []int{10_000, 100_000}

var (
	exporterSnap telemetry.Snapshot
	exporterBody int
)

// exporterPlane builds the plane atcd -nodes 32 publishes into: per node
// four VMs, each with a counter, a gauge, a series and a histogram, and
// spans dealt round-robin over the 33 registries with starts that
// advance and tie across registries (the global registry's decision
// spans carry node ids). One full snapshot has already ordered them, as
// an earlier scrape would have.
func exporterPlane(spans int) *telemetry.Plane {
	p := telemetry.New(telemetry.Options{})
	for n := 0; n < exporterNodes; n++ {
		r := p.Node(n)
		for vm := 0; vm < 4; vm++ {
			lab := telemetry.Label{Node: n, VM: fmt.Sprintf("vc%d-vm%d", vm, n)}
			r.Add("vm_spins", lab, uint64(n*vm))
			r.SetGauge("vm_run_time_ns", lab, float64(n+vm))
			r.Point("vm_slice_ns", lab, sim.Millisecond, 3e7)
			r.Observe("spin_latency", lab, sim.Time(vm+1)*sim.Millisecond)
		}
	}
	for k := 0; k < spans; k++ {
		reg, n := k%(exporterNodes+1), (k/(exporterNodes+1))%exporterNodes
		start := sim.Time(k/(exporterNodes+1)) * sim.Microsecond
		if reg == exporterNodes {
			p.Global().AddSpan(telemetry.Span{Name: "decision", Track: "daemon", Node: n, Start: start, End: start})
		} else {
			p.Node(reg).AddSpan(telemetry.Span{Name: "spin", Track: "vc0-vm0/0", Node: reg, Start: start, End: start + sim.Microsecond})
		}
	}
	p.Snapshot()
	return p
}

// BenchmarkPlaneSnapshot measures the exporter layer's full snapshot, the
// one /debug/atc, -timeline and -jsonl render, at fixed span counts over
// 33 registries. Every registry's spans are already in order, so each
// iteration is a scrape's steady state: the k-way merge into one exactly
// sized slice plus the metric copies. ns/span divides by the span count.
func BenchmarkPlaneSnapshot(b *testing.B) {
	for _, n := range exporterSpanCounts {
		b.Run(fmt.Sprintf("spans=%d", n), func(b *testing.B) {
			p := exporterPlane(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exporterSnap = p.Snapshot()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/span")
		})
	}
}

// BenchmarkMetricsScrape measures one GET /metrics through
// telemetry.Handler over the same planes: its B/op and allocs/op do not
// grow with the span count.
func BenchmarkMetricsScrape(b *testing.B) {
	for _, n := range append([]int{0}, exporterSpanCounts...) {
		b.Run(fmt.Sprintf("spans=%d", n), func(b *testing.B) {
			h := telemetry.Handler(exporterPlane(n), nil)
			req := httptest.NewRequest("GET", "/metrics", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				exporterBody = rec.Body.Len()
			}
			b.ReportMetric(float64(exporterBody), "bytes/scrape")
		})
	}
}

// --- Ablations -----------------------------------------------------------

// ablATC runs the quickstart scenario under a customized ATC and returns
// the mean execution time.
func ablATC(b *testing.B, mutate func(*atc.Options), kernel string) float64 {
	b.Helper()
	opts := atc.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	cfg := cluster.DefaultConfig(2, cluster.ATC)
	cfg.Sched.Options = opts
	return benchScenario(b, cfg, kernel)
}

// BenchmarkAblationMinThreshold compares the paper's 0.3 ms clamp with an
// over-shortening controller (threshold 10 µs): §III-B's pathology.
func BenchmarkAblationMinThreshold(b *testing.B) {
	b.Run("clamp0.3ms", func(b *testing.B) {
		b.ReportMetric(ablATC(b, nil, "lu"), "simexec_s")
	})
	b.Run("clamp10us", func(b *testing.B) {
		b.ReportMetric(ablATC(b, func(o *atc.Options) {
			o.Control.MinThreshold = 10 * sim.Microsecond
			o.Control.Beta = 30 * sim.Microsecond
		}, "lu"), "simexec_s")
	})
}

// BenchmarkAblationWindow compares the paper's 3-period trend window with
// a long window (slower reaction).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{3, 8} {
		w := w
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			b.ReportMetric(ablATC(b, func(o *atc.Options) { o.Control.Window = w }, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationAlpha compares coarse-step granularities.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alphaMS := range []float64{6, 1.5} {
		alphaMS := alphaMS
		b.Run(fmt.Sprintf("alpha%.1fms", alphaMS), func(b *testing.B) {
			b.ReportMetric(ablATC(b, func(o *atc.Options) {
				o.Control.Alpha = sim.FromMillis(alphaMS)
			}, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationBoost measures the credit core's wake boosting on the
// CR baseline (off → parallel I/O waits stretch).
func BenchmarkAblationBoost(b *testing.B) {
	for _, boost := range []bool{true, false} {
		boost := boost
		b.Run(fmt.Sprintf("boost=%v", boost), func(b *testing.B) {
			cfg := cluster.DefaultConfig(2, cluster.CR)
			cfg.Sched.DisableBoost = !boost
			b.ReportMetric(benchScenario(b, cfg, "lu"), "simexec_s")
		})
	}
}

// BenchmarkAblationSteal measures work-conserving stealing on CR.
func BenchmarkAblationSteal(b *testing.B) {
	for _, steal := range []bool{true, false} {
		steal := steal
		b.Run(fmt.Sprintf("steal=%v", steal), func(b *testing.B) {
			cfg := cluster.DefaultConfig(2, cluster.CR)
			cfg.Sched.DisableSteal = !steal
			b.ReportMetric(benchScenario(b, cfg, "lu"), "simexec_s")
		})
	}
}
