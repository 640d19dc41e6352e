package workload

import (
	"testing"
	"testing/quick"

	"atcsched/internal/netmodel"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

func TestNPBProfilesValid(t *testing.T) {
	for _, k := range append(NPBKernels(), ExtraKernels()...) {
		for _, c := range []Class{ClassA, ClassB, ClassC} {
			p := NPB(k, c)
			if err := p.Validate(); err != nil {
				t.Errorf("%s.%v: %v", k, c, err)
			}
			if p.Name != k+"."+c.String() {
				t.Errorf("name = %q", p.Name)
			}
		}
	}
	// Class scaling is monotone in compute.
	for _, k := range append(NPBKernels(), ExtraKernels()...) {
		a, b, c := NPB(k, ClassA), NPB(k, ClassB), NPB(k, ClassC)
		if !(a.ComputePerIter < b.ComputePerIter && b.ComputePerIter < c.ComputePerIter) {
			t.Errorf("%s class compute not monotone", k)
		}
		if !(a.Footprint < c.Footprint) {
			t.Errorf("%s class footprint not monotone", k)
		}
	}
}

func TestUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kernel accepted")
		}
	}()
	NPB("xx", ClassB)
}

// Every send must have a matching expected receive: for all patterns,
// sendTo(i) contains j exactly when recvFrom(j) contains i.
func TestPatternSymmetryProperty(t *testing.T) {
	patterns := []CommPattern{PatternNone, PatternRing, PatternNeighbor, PatternAllToAll, PatternButterfly, PatternStride}
	f := func(itRaw, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		it := int(itRaw)
		for _, p := range patterns {
			sends := make(map[[2]int]int)
			recvs := make(map[[2]int]int)
			for i := 0; i < n; i++ {
				for _, j := range p.sendTo(nil, it, i, n) {
					if j == i || j < 0 || j >= n {
						return false
					}
					sends[[2]int{i, j}]++
				}
				for _, j := range p.recvFrom(nil, it, i, n) {
					if j == i || j < 0 || j >= n {
						return false
					}
					recvs[[2]int{j, i}]++
				}
			}
			if len(sends) != len(recvs) {
				return false
			}
			for k, v := range sends {
				if recvs[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range []CommPattern{PatternNone, PatternRing, PatternNeighbor, PatternAllToAll, PatternButterfly, PatternStride, CommPattern(42)} {
		if p.String() == "" {
			t.Error("empty pattern name")
		}
	}
	for _, c := range []Class{ClassA, ClassB, ClassC, Class(9)} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

func smallWorld(t *testing.T, nodes, pcpus int, slice sim.Time) *vmm.World {
	t.Helper()
	cfg := vmm.DefaultNodeConfig()
	cfg.PCPUs = pcpus
	cfg.Dom0VCPUs = 1
	opts := credit.DefaultOptions()
	opts.TimeSlice = slice
	w, err := vmm.NewWorld(nodes, cfg, netmodel.DefaultConfig(), credit.Factory(opts))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBSPAppCompletesRounds(t *testing.T) {
	w := smallWorld(t, 2, 2, 30*sim.Millisecond)
	vms := []*vmm.VM{
		w.Node(0).NewVM("vc0-a", vmm.ClassParallel, 2, 0, 1),
		w.Node(1).NewVM("vc0-b", vmm.ClassParallel, 2, 0, 1),
	}
	prof := NPB("lu", ClassA)
	prof.Iterations = 5
	app := NewBSPApp(prof, vms, 42)
	if app.Processes() != 4 {
		t.Fatalf("processes = %d", app.Processes())
	}
	done := false
	run := NewParallelRun(app, 3, false, func() { done = true })
	run.Install()
	w.Start()
	w.RunUntil(30 * sim.Second)
	if !done {
		t.Fatalf("run never reached target (rounds=%d)", run.Rounds())
	}
	if run.Rounds() != 3 {
		t.Errorf("rounds = %d, want exactly 3 (not forever)", run.Rounds())
	}
	times := run.Times()
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i, tt := range times {
		if tt <= 0 {
			t.Errorf("round %d time = %v", i, tt)
		}
	}
	if run.MeanTime() <= 0 {
		t.Error("mean time = 0")
	}
	// Messages flowed across the wire: ring pattern, 2 VMs, 2 ranks,
	// 5 iters, 3 rounds → 2*2*5*3 = 60 cross-VM packets.
	if vms[0].PacketsSent() == 0 || vms[1].PacketsReceived() == 0 {
		t.Error("no cross-VM traffic")
	}
}

func TestBSPForeverKeepsRunning(t *testing.T) {
	w := smallWorld(t, 1, 2, 30*sim.Millisecond)
	vms := []*vmm.VM{w.Node(0).NewVM("solo", vmm.ClassParallel, 2, 0, 1)}
	prof := NPB("is", ClassA)
	prof.Iterations = 3
	app := NewBSPApp(prof, vms, 7)
	run := NewParallelRun(app, 2, true, nil)
	run.Install()
	w.Start()
	w.RunUntil(10 * sim.Second)
	if run.Rounds() <= 2 {
		t.Errorf("rounds = %d, want > target with Forever", run.Rounds())
	}
}

func TestBSPSpinAndExecTimeShrinkWithShorterSlices(t *testing.T) {
	// The paper's Figure 5 in miniature: an over-committed node (2 VMs ×
	// 2 VCPUs on 2 PCPUs plus a hog) runs lu; at 0.5 ms slices both the
	// spinlock latency and the execution time must beat 30 ms slices.
	run := func(slice sim.Time) (execTime float64, spin sim.Time) {
		w := smallWorld(t, 2, 2, slice)
		vms := []*vmm.VM{
			w.Node(0).NewVM("a", vmm.ClassParallel, 2, 0, 1),
			w.Node(1).NewVM("b", vmm.ClassParallel, 2, 0, 1),
		}
		// Over-commit both nodes with CPU hogs.
		for n := 0; n < 2; n++ {
			hog := w.Node(n).NewVM("hog", vmm.ClassNonParallel, 2, 0, 1)
			for _, v := range hog.VCPUs() {
				v.SetProcess(&SeqActions{Actions: []vmm.Action{vmm.Compute(sim.Second)}},
					func(*vmm.VCPU) vmm.Process {
						return &SeqActions{Actions: []vmm.Action{vmm.Compute(sim.Second)}}
					})
			}
		}
		// Enough iterations that one round's CPU work spans several 30 ms
		// slices — otherwise a round fits in one slice and lock-holder
		// preemption can never occur.
		prof := NPB("lu", ClassA)
		prof.Iterations = 100
		app := NewBSPApp(prof, vms, 11)
		run := NewParallelRun(app, 2, false, func() { w.Stop() })
		run.Install()
		w.Start()
		w.RunUntil(240 * sim.Second)
		return run.MeanTime(), app.SpinLatencyMean()
	}
	slowExec, slowSpin := run(30 * sim.Millisecond)
	fastExec, fastSpin := run(500 * sim.Microsecond)
	if fastSpin >= slowSpin {
		t.Errorf("spin latency: 0.5ms slice %v >= 30ms slice %v", fastSpin, slowSpin)
	}
	if fastExec >= slowExec {
		t.Errorf("exec time: 0.5ms slice %.4fs >= 30ms slice %.4fs", fastExec, slowExec)
	}
}

func TestCPUJobRecordsRounds(t *testing.T) {
	w := smallWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("spec", vmm.ClassNonParallel, 1, 0, 1)
	job := NewCPUJob(vm.VCPU(0), SPECProfiles()[0])
	w.Start()
	w.RunUntil(3 * sim.Second)
	if job.Rounds() < 3 {
		t.Fatalf("rounds = %d", job.Rounds())
	}
	// Alone on the node, a round takes ~its warm work (plus initial cache
	// fill).
	if m := job.MeanTime(); m < 0.4 || m > 0.45 {
		t.Errorf("mean round = %.4fs, want ~0.4s", m)
	}
}

func TestStreamJobBandwidth(t *testing.T) {
	w := smallWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("stream", vmm.ClassNonParallel, 1, 0, 1)
	job := NewStreamJob(vm.VCPU(0))
	w.Start()
	w.RunUntil(2 * sim.Second)
	if job.Rounds() < 5 {
		t.Fatalf("rounds = %d", job.Rounds())
	}
	bw := job.BandwidthMBps()
	// 400 MB per ~0.1 s round → ~4000 MB/s unhindered.
	if bw < 3500 || bw > 4100 {
		t.Errorf("bandwidth = %.0f MB/s", bw)
	}
}

func TestDiskJobThroughput(t *testing.T) {
	w := smallWorld(t, 1, 1, 30*sim.Millisecond)
	vm := w.Node(0).NewVM("bonnie", vmm.ClassNonParallel, 1, 0, 1)
	job := NewDiskJob(vm.VCPU(0))
	w.Start()
	w.RunUntil(5 * sim.Second)
	if job.Requests() < 100 {
		t.Fatalf("requests = %d", job.Requests())
	}
	// 100 MB/s disk minus positioning overhead → ~90 MB/s.
	if tp := job.ThroughputMBps(); tp < 80 || tp > 101 {
		t.Errorf("throughput = %.1f MB/s", tp)
	}
}

func TestPingJobRTT(t *testing.T) {
	w := smallWorld(t, 2, 1, 30*sim.Millisecond)
	client := w.Node(0).NewVM("pingc", vmm.ClassNonParallel, 1, 0, 1)
	echo := w.Node(1).NewVM("pinge", vmm.ClassNonParallel, 1, 0, 1)
	job := NewPingJob(client, 0, echo, 0, 10*sim.Millisecond)
	w.Start()
	w.RunUntil(3 * sim.Second)
	if job.Probes() < 100 {
		t.Fatalf("probes = %d", job.Probes())
	}
	rtt := job.MeanRTT()
	// Idle cluster: two wire crossings + four backend passes ≈ 150-500 µs.
	if rtt <= 0 || rtt > 0.002 {
		t.Errorf("RTT = %.6fs", rtt)
	}
	// Percentiles are ordered (within P2 estimation tolerance on this
	// nearly-constant distribution) and bounded by the max.
	tol := 0.01 * rtt
	if !(job.MeanRTT() <= job.P99RTT()+tol && job.P99RTT() <= job.MaxRTT()+tol) {
		t.Errorf("percentiles unordered: mean=%v p99=%v max=%v",
			job.MeanRTT(), job.P99RTT(), job.MaxRTT())
	}
}

func TestWebJobResponseTime(t *testing.T) {
	w := smallWorld(t, 2, 1, 30*sim.Millisecond)
	client := w.Node(0).NewVM("httperf", vmm.ClassNonParallel, 1, 0, 1)
	server := w.Node(1).NewVM("apache", vmm.ClassNonParallel, 1, 0, 1)
	job := NewWebJob(client, 0, server, 0, 20*sim.Millisecond, 2*sim.Millisecond, 5)
	w.Start()
	w.RunUntil(5 * sim.Second)
	if job.Requests() < 100 {
		t.Fatalf("requests = %d", job.Requests())
	}
	resp := job.MeanResponse()
	// Service 2 ms + network; idle cluster.
	if resp < 0.002 || resp > 0.006 {
		t.Errorf("response = %.6fs", resp)
	}
	if job.P99Response() < resp*0.99 {
		t.Errorf("web percentiles unordered: mean=%v p99=%v", resp, job.P99Response())
	}
}

func TestBSPAppValidation(t *testing.T) {
	w := smallWorld(t, 1, 1, sim.Millisecond)
	_ = w
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty VM list accepted")
			}
		}()
		NewBSPApp(NPB("lu", ClassA), nil, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid profile accepted")
			}
		}()
		NewBSPApp(AppProfile{}, nil, 1)
	}()
	defer func() {
		if recover() == nil {
			t.Error("zero rounds accepted")
		}
	}()
	NewParallelRun(nil, 0, false, nil)
}
