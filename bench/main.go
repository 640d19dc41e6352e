// Command bench is the repository's benchmark. It drives each layer only
// through its public API over four closed-loop workloads (see README.md),
// runs every rep in a fresh child process, checks the outputs, and prints
// every metric as "workload metric median q1 q3 n unit", ending with one
// JSON result line.
//
//	bash bench/run.sh [-workload W] [-seed S] [-seconds T] [-reps N]
//	                  [-trace 0|1] [-spans trace.json] [-out res.json]
//	bash bench/run.sh compare base.json head.json
//
// run.sh builds this package into .bench_build/ at the repository root and
// runs it from there; BENCHMARK.json is read from the working directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// childEnv marks a process started by the benchmark to run one rep.
const childEnv = "ATCBENCH_CHILD"

// specPath is the benchmark declaration, read from the working directory
// (run.sh runs from the repository root).
const specPath = "BENCHMARK.json"

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the run flags, runs the workloads and reports. It
// returns 0 when every correctness check passed, 1 when one failed, and 2
// on a usage or set-up error.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "seed the workload inputs are made from")
		seconds  = fs.Float64("seconds", 30, "measuring time per workload when -reps is 0")
		reps     = fs.Int("reps", 0, "reps per workload (0: as many as fit in -seconds, at least 3)")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		spans    = fs.String("spans", ".bench_build/trace.json", "with -trace 1, the Perfetto span file to write")
		out      = fs.String("out", "", "write every metric with its samples to this JSON file")
		commit   = fs.String("commit", "", "commit label recorded in -out")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *reps < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}
	s, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	opts := runOpts{
		seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1,
		spansPath: *spans, outPath: *out, commit: *commit, spec: s,
	}
	if *workload == "all" {
		opts.workloads = workloadOrder
	} else if _, ok := workloads[*workload]; ok {
		opts.workloads = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if opts.exe, err = os.Executable(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	ok, err := run(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

// childMain runs one rep and prints its result as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg repConfig
	fs.StringVar(&cfg.workload, "workload", "", "")
	fs.Uint64Var(&cfg.seed, "seed", 1, "")
	fs.BoolVar(&cfg.traced, "traced", false, "")
	fs.BoolVar(&cfg.probes, "probes", false, "")
	fs.BoolVar(&cfg.tiny, "tiny", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runRep(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	if err := writeJSON(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	return 0
}
