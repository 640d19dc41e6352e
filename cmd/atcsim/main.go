// Command atcsim runs a single ad-hoc scenario: a cluster of nodes under
// a chosen scheduling approach, a set of identical virtual clusters
// running one NPB-like kernel, and optional CPU-hog co-tenants. It
// prints per-cluster execution times, spinlock latency, and scheduler
// statistics — a quick way to poke at the simulator without the full
// experiment harness. The flags describe a scenario.Spec; -f reads one
// from a JSON file instead, and both are built by scenario.Build.
//
// Example:
//
//	atcsim -nodes 4 -sched ATC -kernel lu -class B -vcs 4 -rounds 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"atcsched/internal/cluster"
	"atcsched/internal/report"
	"atcsched/internal/scenario"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atcsim:", err)
		os.Exit(1)
	}
}

// run parses args and executes one scenario, writing results to stdout.
// Split from main so tests can drive the whole command in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("atcsim", flag.ContinueOnError)
	var (
		specFile = fs.String("f", "", "run a JSON scenario file instead of the flag-built scenario (see examples/scenarios)")
		list     = fs.Bool("list-schedulers", false, "list every registered scheduling policy with its default options and exit")
		nodes    = fs.Int("nodes", 2, "physical nodes")
		schedArg = fs.String("sched", "ATC", "scheduling policy kind (see -list-schedulers)")
		kernel   = fs.String("kernel", "lu", "NPB kernel: lu, is, sp, bt, mg, cg")
		class    = fs.String("class", "B", "problem class: A, B, C")
		vcs      = fs.Int("vcs", 4, "identical virtual clusters (one VM per node each)")
		vcpus    = fs.Int("vcpus", 8, "VCPUs per VM")
		rounds   = fs.Int("rounds", 3, "measured rounds per cluster")
		slice    = fs.Float64("slice", 0, "fixed time slice in ms (0 = scheduler default)")
		seed     = fs.Uint64("seed", 1, "workload seed")
		horizon  = fs.Float64("horizon", 1200, "virtual-time budget in seconds")
		hogs     = fs.Int("hogs", 0, "CPU-hog (1-VCPU gcc) non-parallel VMs per node")
		trace    = fs.String("trace", "", "write a scheduling trace: 'summary', 'text:<file>' or 'csv:<file>'")
		traceCap = fs.Int("tracecap", 200000, "max trace records retained per node, the newest (<= 0 selects 65536)")
		timeline = fs.String("timeline", "", "write a Chrome/Perfetto trace-event timeline to this file")
		jsonlOut = fs.String("jsonl", "", "write the telemetry time-series dump (JSON Lines) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		return listSchedulers(stdout)
	}

	var spec *scenario.Spec
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			return err
		}
		spec, err = scenario.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		if *vcs < 1 || *hogs < 0 {
			return fmt.Errorf("need -vcs >= 1 and -hogs >= 0, got %d and %d", *vcs, *hogs)
		}
		spec = &scenario.Spec{
			Nodes:      *nodes,
			Scheduler:  scenario.SchedulerSpec{Kind: strings.ToUpper(*schedArg), FixedSliceMs: *slice},
			Seed:       *seed,
			HorizonSec: *horizon,
		}
		for vc := 0; vc < *vcs; vc++ {
			spec.VirtualClusters = append(spec.VirtualClusters, scenario.VCSpec{
				VCPUs: *vcpus, Kernel: *kernel, Class: strings.ToUpper(*class), Rounds: *rounds,
			})
		}
		for n := 0; n < *nodes; n++ {
			for h := 0; h < *hogs; h++ {
				spec.Jobs = append(spec.Jobs, scenario.JobSpec{Type: "cpu", Name: "gcc", Node: n})
			}
		}
	}
	res, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	s := res.Scenario
	// Either artifact flag attaches the telemetry plane. -trace and the
	// timeline's PCPU lanes also need the scheduling records, which go
	// to that plane, or to one that only records when there is none.
	opts := telemetry.Options{RecordCap: *traceCap}
	var plane *telemetry.Plane
	if *timeline != "" || *jsonlOut != "" {
		plane = telemetry.New(opts)
		s.World.SetTelemetry(plane)
	}
	if *trace != "" || *timeline != "" {
		rec := plane
		if rec == nil {
			rec = telemetry.New(opts)
		}
		s.World.SetRecording(rec)
	}

	if *specFile != "" {
		table, err := res.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table.String())
	} else {
		runFlagScenario(stdout, spec, s)
	}
	var snap telemetry.Snapshot
	if plane != nil {
		s.FinalizeTelemetry()
		snap = plane.Snapshot()
		if err := telemetry.WriteFiles(*timeline, *jsonlOut, snap); err != nil {
			return err
		}
	}
	if *trace != "" {
		if plane == nil {
			snap = s.World.Recording().Snapshot()
		}
		return telemetry.WriteTrace(stdout, *trace, snap)
	}
	return nil
}

// runFlagScenario drives the flag-built scenario to completion (or the
// horizon) and prints its per-cluster report.
func runFlagScenario(stdout io.Writer, spec *scenario.Spec, s *cluster.Scenario) {
	wall := time.Now()
	ok := s.Go(sim.FromSeconds(spec.HorizonSec))
	elapsed := time.Since(wall)

	vc := spec.VirtualClusters[0]
	fmt.Fprintf(stdout, "scenario: %d nodes x %d PCPUs, %d VCs of %d x %d-VCPU VMs, kernel %s, scheduler %s\n",
		spec.Nodes, s.Cfg.Node.PCPUs, len(spec.VirtualClusters), vc.VMs, vc.VCPUs, vc.Profile().Name,
		s.World.Node(0).Scheduler().Name())
	if !ok {
		fmt.Fprintln(stdout, "WARNING: horizon exceeded before all clusters finished")
	}
	t := report.New("per-cluster results", "VC", "rounds", "mean exec", "spin latency", "LLC misses")
	for i, r := range s.Runs() {
		t.Add(spec.VirtualClusters[i].Name, report.I(r.Rounds()),
			fmt.Sprintf("%.3fs", r.MeanTime()),
			r.App.SpinLatencyMean().String(),
			report.I(r.App.LLCMisses()))
	}
	fmt.Fprintln(stdout, t.String())

	var ctx, wakes uint64
	for _, n := range s.World.Nodes() {
		ctx += n.CtxSwitches()
		wakes += n.Wakes()
	}
	fmt.Fprintf(stdout, "virtual time %v, context switches %d, wakes %d, packets %d, events %d (wall %v)\n",
		s.World.Now(), ctx, wakes, s.World.Fabric.PacketsSent(), s.World.Executed(), elapsed.Round(time.Millisecond))
	if a, isATC := s.World.Node(0).Scheduler().(*atc.Scheduler); isATC {
		for _, vm := range s.World.Node(0).VMs()[:min(3, len(s.World.Node(0).VMs()))] {
			fmt.Fprintf(stdout, "node0 %s: final ATC slice %v\n", vm.Name(), a.CurrentSlice(vm))
		}
	}
}

// listSchedulers prints every registered policy — the paper's comparison
// set in presentation order, then extensions, then the rest — with its
// description and default options as the JSON accepted by scenario files.
func listSchedulers(stdout io.Writer) error {
	seen := map[string]bool{}
	var kinds []string
	for _, a := range cluster.ExtendedApproaches() {
		kinds = append(kinds, string(a))
		seen[string(a)] = true
	}
	for _, k := range registry.Kinds() {
		if !seen[k] {
			kinds = append(kinds, k)
		}
	}
	for _, k := range kinds {
		d, ok := registry.Lookup(k)
		if !ok {
			return registry.UnknownKindError(k)
		}
		fmt.Fprintf(stdout, "%s\t%s\n", d.Kind, d.Description)
		opts, err := json.MarshalIndent(d.Defaults(), "  ", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  defaults: %s\n", opts)
	}
	return nil
}
