// Command experiments regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig10 -scale medium
//	experiments -all -scale small -format csv
//	experiments -exp fig10 -parallel 8 -cpuprofile cpu.out
//
// Scales: small (quick check), medium (full structure, reduced nodes),
// full (the paper's 32-node testbed dimensions; slow).
//
// Experiment cells (independent simulation runs) fan across a worker
// pool sized by -parallel (default: GOMAXPROCS); tables are
// byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"atcsched/internal/experiment"
	"atcsched/internal/runner"
	"atcsched/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and executes the selected experiments, writing tables
// to stdout. Split from main so tests can drive the command in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		expID        = fs.String("exp", "", "experiment id(s), comma-separated (fig1, fig2, fig5, fig8, euclid, fig9, fig10, fig11, fig12, fig13, fig14, tab1; extensions: score, sens, ablate, switch, faults, scale, dfrs)")
		all          = fs.Bool("all", false, "run every experiment (skips wall-clock benchmarks like scale; select those with -exp)")
		list         = fs.Bool("list", false, "list experiments and exit")
		scale        = fs.String("scale", "small", "small | medium | full")
		seed         = fs.Uint64("seed", 1, "workload seed")
		format       = fs.String("format", "text", "text | csv | markdown")
		outDir       = fs.String("out", "", "also write each table as CSV into this directory")
		parallel     = fs.Int("parallel", 0, "worker-pool width for experiment cells (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		blockprofile = fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit (shard barrier waits)")
		mutexprofile = fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		timelineOut  = fs.String("timeline", "", "run the instrumented fault showcase and write a Chrome/Perfetto timeline to this file")
		jsonlOut     = fs.String("jsonl", "", "run the instrumented fault showcase and write its telemetry JSONL dump to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner.SetDefaultWorkers(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeProfile("heap", *memprofile)
	}

	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	sc, err := experiment.ScaleByName(*scale)
	if err != nil {
		return err
	}
	if *timelineOut != "" || *jsonlOut != "" {
		if err := runTimeline(stdout, sc, *seed, *timelineOut, *jsonlOut); err != nil {
			return err
		}
		// The showcase can run standalone or alongside selected experiments.
		if *expID == "" && !*all {
			return nil
		}
	}
	var exps []experiment.Experiment
	switch {
	case *all:
		for _, e := range experiment.All() {
			if !e.Bench {
				exps = append(exps, e)
			}
		}
	case *expID != "":
		for _, id := range strings.Split(*expID, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	default:
		return fmt.Errorf("specify -exp <id> or -all (use -list to enumerate)")
	}

	runStart := time.Now()
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(stdout, "== %s: %s [scale=%s seed=%d]\n", e.ID, e.Title, sc.Name, *seed)
		tables, err := e.Run(sc, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for i, t := range tables {
			switch *format {
			case "csv":
				fmt.Fprint(stdout, t.CSV())
			case "markdown":
				fmt.Fprintln(stdout, t.Markdown())
			default:
				fmt.Fprintln(stdout, t.String())
			}
			if *outDir != "" {
				if err := writeCSV(*outDir, fmt.Sprintf("%s_%d.csv", e.ID, i), t.CSV()); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stdout, "-- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "== total: %d experiment(s), %d cell(s) in %v (workers=%d)\n",
		len(exps), runner.Cells(), time.Since(runStart).Round(time.Millisecond), runner.DefaultWorkers())
	return nil
}

// runTimeline executes the instrumented fault showcase and writes the
// requested telemetry artifacts.
func runTimeline(stdout io.Writer, sc experiment.Scale, seed uint64, timeline, jsonl string) error {
	start := time.Now()
	res, err := experiment.Timeline(sc, seed)
	if err != nil {
		return err
	}
	if err := telemetry.WriteFiles(timeline, jsonl, res.Snapshot); err != nil {
		return err
	}
	if timeline != "" {
		fmt.Fprintf(stdout, "timeline: wrote %s\n", timeline)
	}
	if jsonl != "" {
		fmt.Fprintf(stdout, "jsonl: wrote %s\n", jsonl)
	}
	fmt.Fprintf(stdout, "-- timeline showcase done in %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeProfile dumps a named runtime profile (block, mutex) on exit;
// failures are reported, not fatal — the tables already printed.
func writeProfile(kind, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

func writeCSV(dir, name, csv string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, []byte(csv), 0o644)
}
