// Command atcd is a userspace Adaptive Time-slice Control daemon
// prototype. The paper implements ATC inside Xen's scheduler; this
// daemon runs the identical control law (internal/core) in userspace
// against pluggable latency sources and slice actuators — the deployment
// shape available without hypervisor modifications.
//
// Every backend runs the same control loop, the fleet control plane
// (internal/daemon.Fleet); a single machine is a 1-node fleet.
//
// Backends:
//
//	-backend demo    synthesize a contention episode on one node and
//	                 print the control trajectory (default)
//	-backend stdio   one node, one period per input line group: lines of
//	                 "<vmID> <avg-latency-us> <parallel:0|1> [admin-us]"
//	                 terminated by "--"; emits "vm<N> <slice>us" lines
//	-backend sim     close the loop against a live simulated cluster
//	                 (2 nodes unless -nodes says otherwise): each node's
//	                 controller samples real spinlock latencies from the
//	                 simulator and actuates that node's scheduler
//
// Fleet shape and state (every backend):
//
//	-nodes N         simulate N nodes (implies -backend sim)
//	-shards S        spread each period's nodes over S goroutines
//	-hollow          sim: kubemark-style hollow nodes (one light VM each)
//	-snapshot f.ckpt write a control-plane checkpoint at exit (temp file,
//	                 fsync, rename: a crash leaves the old or the new one):
//	                 a binary image in an envelope whose length and
//	                 CRC-32C let -restore refuse a torn or damaged file
//	-restore f.ckpt  resume from a checkpoint written by -snapshot, or
//	                 from a version-1 JSON snapshot of an earlier build
//
// Observability:
//
//	-listen addr     serve Prometheus text exposition on /metrics (its
//	                 cost does not grow with span or series history) and
//	                 a JSON state snapshot (fleet summary plus per-node
//	                 table) on /debug/atc; every telemetry history keeps
//	                 its newest entries, so both show the present however
//	                 long the run, and /metrics counts what the caps
//	                 evicted (atc_telemetry_dropped_*_total); the process
//	                 keeps serving after the control loop ends until
//	                 SIGINT or SIGTERM arrives (clean shutdown either way)
//	-timeline f.json sim: write a Chrome/Perfetto trace-event timeline
//	-jsonl f.jsonl   sim: write the telemetry time-series dump
//
// Example:
//
//	printf '1 2000 1\n--\n1 4000 1\n--\n' | atcd -backend stdio
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/daemon"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
	"atcsched/internal/workload"
)

// timelineTraceCap bounds the scheduling records each node keeps for
// -timeline.
const timelineTraceCap = 200000

// listenReady, when set (tests), receives the bound listen address once
// the HTTP surface is up.
var listenReady func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "atcd:", err)
		os.Exit(1)
	}
}

// run is main with its environment injected, so tests drive the whole
// daemon — flags, signals, HTTP surface, artifact flush — in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("atcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		backend   = fs.String("backend", "demo", "demo | stdio | sim")
		defSlice  = fs.Float64("default", 30, "default slice in ms")
		threshold = fs.Float64("min", 0.3, "minimum slice threshold in ms")
		alpha     = fs.Float64("alpha", 6, "coarse adjustment step in ms")
		beta      = fs.Float64("beta", 0.3, "fine adjustment step in ms")
		periods   = fs.Int("periods", 40, "demo/sim: number of control periods (0 runs none: -restore f -snapshot g rewrites the restored state)")
		swap      = fs.String("swap", "", `sim: scheduled policy switches "period:node:KIND[,...]" (node -1 = all), e.g. "10:-1:ATC"`)
		nodes     = fs.Int("nodes", 0, "simulate this many nodes (implies -backend sim; 0 = the sim backend's default of 2)")
		shards    = fs.Int("shards", 0, "spread each period's nodes over this many goroutines (default 1)")
		hollow    = fs.Bool("hollow", false, "sim: hollow kubemark-style nodes — one light VM per node")
		snapshot  = fs.String("snapshot", "", "write a control-plane snapshot to this file at exit")
		restore   = fs.String("restore", "", "restore control-plane state from this snapshot file at start")
		listen    = fs.String("listen", "", "serve /metrics and /debug/atc on this address (e.g. :9090)")
		timeline  = fs.String("timeline", "", "sim: write a Chrome/Perfetto timeline to this file at exit")
		jsonl     = fs.String("jsonl", "", "sim: write the telemetry JSONL dump to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.Config{
		Default: sim.FromMillis(*defSlice),
		Params: core.Params{
			MinThreshold: sim.FromMillis(*threshold),
			Alpha:        sim.FromMillis(*alpha),
			Beta:         sim.FromMillis(*beta),
			Window:       3,
		},
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *periods < 0 || *periods == 0 && *swap != "" {
		return fmt.Errorf("-periods %d: want 0 or more, and at least 1 with -swap", *periods)
	}

	if *nodes > 0 {
		if *backend == "stdio" {
			return fmt.Errorf("-nodes requires the sim backend, not %q", *backend)
		}
		*backend = "sim"
	}
	if *backend != "sim" {
		if *swap != "" {
			return fmt.Errorf("-swap requires the sim backend, not %q", *backend)
		}
		if *hollow {
			return fmt.Errorf("-hollow requires the sim backend, not %q", *backend)
		}
	}

	// Any observability output needs the telemetry plane; the fleet and
	// (for -backend sim) the simulated world publish into it.
	var plane *telemetry.Plane
	if *listen != "" || *timeline != "" || *jsonl != "" {
		plane = telemetry.New(telemetry.Options{RecordCap: timelineTraceCap})
	}

	var src daemon.FleetSource
	var act daemon.FleetActuator = daemon.WriterActuator{W: stdout}
	var sb *daemon.SimBackend
	maxNodes := 1
	switch *backend {
	case "demo":
		src = demoSource(*periods)
	case "stdio":
		src = &stdioSource{r: bufio.NewScanner(os.Stdin)}
	case "sim":
		switches, err := parseSwitches(*swap)
		if err != nil {
			return err
		}
		sb, err = daemon.NewSimBackend(daemon.SimBackendConfig{
			Nodes:      *nodes,
			Class:      workload.ClassB,
			MaxPeriods: *periods,
			Switches:   switches,
			Telemetry:  plane,
			Hollow:     *hollow,
		})
		if err != nil {
			return err
		}
		sb.MaxPeriods = *periods // the config reads 0 as its 400-period default
		if *timeline != "" {
			// The timeline merges scheduling records with telemetry
			// spans; the world's clock has not advanced yet, so
			// recording from here still captures the whole run.
			sb.World.SetRecording(plane)
		}
		src, act, maxNodes = sb, sb, len(sb.World.Nodes())
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}
	f := daemon.NewFleet(cfg, src, act, daemon.FleetOptions{
		Node:     daemon.DefaultOptions(),
		Shards:   *shards,
		MaxNodes: maxNodes,
	})
	defer f.Close()
	if plane != nil {
		var clock func() sim.Time
		if sb != nil {
			clock = sb.Now
		}
		f.SetTelemetry(plane.Global(), clock)
	}

	if *restore != "" {
		raw, err := os.ReadFile(*restore)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		snap, err := daemon.DecodeSnapshot(raw)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		if err := f.Restore(snap); err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		fmt.Fprintf(stderr, "atcd: restored %d nodes from %s (%d skipped)\n",
			f.RestoredNodes(), *restore, f.SkippedRestoreNodes())
	}

	// SIGINT/SIGTERM stop the control loop at its next period boundary
	// and, once the loop has returned and artifacts are flushed, end the
	// process cleanly (the HTTP surface shuts down gracefully).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	loopDone := make(chan struct{})
	interrupted := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			close(interrupted)
			f.Stop()
		case <-loopDone:
		}
	}()

	var srv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		srv = &http.Server{Handler: telemetry.Handler(plane, func() map[string]any {
			table := f.Table()
			if sb != nil {
				policies := sb.NodePolicies()
				for i := range table {
					if n := table[i].Node; n >= 0 && n < len(policies) {
						table[i].Policy = policies[n]
					}
				}
			}
			return map[string]any{
				"fleet": f.Summary(),
				"nodes": table,
			}
		})}
		fmt.Fprintf(stderr, "atcd: serving telemetry on http://%s\n", ln.Addr())
		if listenReady != nil {
			listenReady(ln.Addr().String())
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
	}

	runErr := f.Run()
	close(loopDone)
	if runErr != nil && !daemon.IsDone(runErr) {
		return runErr
	}
	fmt.Fprintf(stderr, "atcd: %d control periods executed, %d decisions applied across %d node(s)\n",
		f.Periods(), f.Decisions(), len(f.Nodes()))

	if *snapshot != "" {
		snap := f.Snapshot()
		enc, err := snap.Encode()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := writeFileAtomic(*snapshot, func(w io.Writer) error {
			_, err := w.Write(enc)
			return err
		}); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "atcd: snapshot of %d nodes written to %s\n", len(snap.Nodes), *snapshot)
	}

	if sb != nil {
		sb.FinalizeTelemetry()
		var rounds int
		for _, r := range sb.Runs() {
			rounds += r.Rounds()
		}
		fmt.Fprintf(stdout, "sim backend: %d application rounds completed in %v of virtual time\n",
			rounds, sb.World.Now())
	}
	if *timeline != "" || *jsonl != "" {
		if err := telemetry.WriteFiles(*timeline, *jsonl, plane.Snapshot()); err != nil {
			return err
		}
	}
	if srv != nil {
		// Keep answering scrapes until asked to stop, then drain.
		select {
		case <-interrupted:
		case <-sigc:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "atcd: telemetry server closed")
	}
	return nil
}

// writeFileAtomic replaces path with fn's output so that a crash at any
// instant leaves the old file or the new one, never a torn mix: fn
// writes a temp file in path's directory, which is synced, renamed
// over path, and made durable by syncing the directory. On a failure
// before the rename the temp file is removed and path is untouched.
func writeFileAtomic(path string, fn func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = fn(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// parseSwitches parses the -swap flag: comma-separated
// "period:node:KIND" triples.
func parseSwitches(s string) ([]daemon.PolicySwitch, error) {
	if s == "" {
		return nil, nil
	}
	var out []daemon.PolicySwitch
	for _, part := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bad -swap entry %q (want period:node:KIND)", part)
		}
		period, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("bad -swap period %q", f[0])
		}
		node, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("bad -swap node %q", f[1])
		}
		out = append(out, daemon.PolicySwitch{AtPeriod: period, Node: node, Kind: f[2]})
	}
	return out, nil
}

// demoSource synthesizes a parallel VM going through idle → rising
// contention → decay → idle, next to a non-parallel neighbour.
func demoSource(periods int) *daemon.SliceSource {
	var ps [][]daemon.VMSample
	for i := 0; i < periods; i++ {
		var lat sim.Time
		switch {
		case i < 5: // idle
		case i < periods/2: // rising contention
			lat = sim.Time(i-4) * 2 * sim.Millisecond
		case i < periods*3/4: // decaying
			lat = sim.Time(periods-i) * sim.Millisecond
		default: // idle again
		}
		ps = append(ps, []daemon.VMSample{
			{ID: 1, AvgSpinLatency: lat, Parallel: true},
			{ID: 2, Parallel: false},
		})
	}
	return &daemon.SliceSource{Periods: ps}
}

// parseMicros parses a non-negative microsecond count that fits in a
// sim.Time; NaN, infinities and negative values are rejected.
func parseMicros(s string) (sim.Time, bool) {
	us, err := strconv.ParseFloat(s, 64)
	ns := us * float64(sim.Microsecond)
	if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
		return 0, false
	}
	return sim.Time(ns), true
}

// stdioSource parses period groups from stdin as node 0's batches.
type stdioSource struct {
	r *bufio.Scanner
}

// SampleFleet implements daemon.FleetSource.
func (s *stdioSource) SampleFleet() ([]daemon.NodeBatch, error) {
	samples, err := s.next()
	if err != nil {
		return nil, err
	}
	return []daemon.NodeBatch{{Node: 0, Samples: samples}}, nil
}

// next parses one period group.
func (s *stdioSource) next() ([]daemon.VMSample, error) {
	var out []daemon.VMSample
	for s.r.Scan() {
		line := strings.TrimSpace(s.r.Text())
		if line == "" {
			continue
		}
		if line == "--" {
			return out, nil
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("bad input line %q (want: id latency-us parallel [admin-us])", line)
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("bad vm id %q", f[0])
		}
		for _, vs := range out {
			if vs.ID == id {
				return nil, fmt.Errorf("duplicate vm %d in one period", id)
			}
		}
		lat, ok := parseMicros(f[1])
		if !ok {
			return nil, fmt.Errorf("bad latency %q", f[1])
		}
		par := f[2] == "1" || strings.EqualFold(f[2], "true")
		vs := daemon.VMSample{ID: id, AvgSpinLatency: lat, Parallel: par}
		if len(f) >= 4 {
			if vs.AdminSlice, ok = parseMicros(f[3]); !ok {
				return nil, fmt.Errorf("bad admin slice %q", f[3])
			}
		}
		out = append(out, vs)
	}
	if len(out) > 0 {
		return out, nil
	}
	return nil, io.EOF
}
