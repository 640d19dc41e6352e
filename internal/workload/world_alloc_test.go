package workload

import (
	"testing"
	"time"

	"atcsched/internal/netmodel"
	"atcsched/internal/sched/credit"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// bspWorld builds the steady-state fixture of the world-level allocation
// test and benchmark: two 2-PCPU credit nodes running one lu.A virtual
// cluster of two 2-VCPU VMs round after round, warmed for warm rounds so
// every queue, mailbox and process has reached its working size.
func bspWorld(tb testing.TB, warm int) (*vmm.World, *ParallelRun) {
	tb.Helper()
	cfg := vmm.DefaultNodeConfig()
	cfg.PCPUs = 2
	cfg.Dom0VCPUs = 1
	w, err := vmm.NewWorld(2, cfg, netmodel.DefaultConfig(), credit.Factory(credit.DefaultOptions()))
	if err != nil {
		tb.Fatal(err)
	}
	vms := []*vmm.VM{
		w.Node(0).NewVM("a", vmm.ClassParallel, 2, 0, 1),
		w.Node(1).NewVM("b", vmm.ClassParallel, 2, 0, 1),
	}
	prof := NPB("lu", ClassA)
	prof.Iterations = 10
	run := NewParallelRun(NewBSPApp(prof, vms, 7), 1, true, nil)
	run.Install()
	w.Start()
	advanceRounds(w, run, warm)
	return w, run
}

// advanceRounds runs the world in 1 ms steps until n more rounds have
// completed.
func advanceRounds(w *vmm.World, run *ParallelRun, n int) {
	target := run.Rounds() + n
	for run.Rounds() < target {
		w.RunUntil(w.Now() + sim.Millisecond)
	}
}

// delivered sums the packets delivered to vms.
func delivered(vms []*vmm.VM) uint64 {
	var n uint64
	for _, vm := range vms {
		n += vm.PacketsReceived()
	}
	return n
}

// TestWorldSteadyStateAllocs pins the allocation cost of a warm BSP world
// per delivered packet, one level above sim's TestSteadyStateAllocs and
// netmodel's TestFabricSteadyStateAllocs. The packet path recycles its
// wire and flight records, and each process reuses its state and RNG
// from round to round, so what remains is a few objects per round (the
// cross-node restart signal), well under one per ten packets.
func TestWorldSteadyStateAllocs(t *testing.T) {
	w, _ := bspWorld(t, 20)
	vms := w.GuestVMs() // allocates: keep it out of the measured closure
	var pkts uint64
	calls := 0
	avg := testing.AllocsPerRun(50, func() {
		before := delivered(vms)
		w.RunUntil(w.Now() + 10*sim.Millisecond)
		if calls > 0 { // AllocsPerRun's first call is an unmeasured warm-up
			pkts += delivered(vms) - before
		}
		calls++
	})
	if pkts == 0 {
		t.Fatal("no packets delivered while measuring")
	}
	perPacket := avg * 50 / float64(pkts)
	t.Logf("%.2f allocs per 10 ms step, %d packets, %.2f allocs/packet", avg, pkts, perPacket)
	const want = 0.1
	if perPacket > want {
		t.Fatalf("steady-state world allocates %.2f objects per delivered packet, want <= %.1f", perPacket, want)
	}
}

// BenchmarkWorldBSPRound measures the vmm dispatch path end to end: one
// op is one BSP round of the bspWorld fixture. It reports the host time
// per simulated event next to allocs/op.
func BenchmarkWorldBSPRound(b *testing.B) {
	w, run := bspWorld(b, 5)
	ev := w.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	advanceRounds(w, run, b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	events := w.Executed() - ev
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(events), "ns/event")
}
