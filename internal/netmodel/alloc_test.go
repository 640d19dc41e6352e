package netmodel

import (
	"testing"

	"atcsched/internal/sim"
)

// ring passes one message around a ring of nodes: each delivery sends
// the next hop from the receiving node, with deliver callbacks bound
// once per node, the way vmm binds its wire records.
type ring struct {
	f       *Fabric
	run     func() // runs the fabric's engines until the ring is idle
	left    int
	deliver []func()
}

func newRing(f *Fabric, run func()) *ring {
	r := &ring{f: f, run: run, deliver: make([]func(), f.Nodes())}
	for i := range r.deliver {
		at := (i + 1) % f.Nodes() // deliver[i] runs when a message from i lands
		r.deliver[i] = func() {
			if r.left > 0 {
				r.left--
				f.Send(at, (at+1)%f.Nodes(), 1500, r.deliver[at])
			}
		}
	}
	return r
}

// hops runs n send → deliver round trips, the first one from node 0.
func (r *ring) hops(n int) {
	r.left = n - 1
	r.f.Send(0, 1, 1500, r.deliver[0])
	r.run()
}

// oneEngineRing is a ring on a one-engine fabric.
func oneEngineRing(nodes int) *ring {
	eng := sim.New()
	return newRing(New(eng, nodes, DefaultConfig()), func() { eng.Run() })
}

// shardedRing is a ring whose nodes have an engine each, run by two
// workers, so every hop crosses the barrier through ShardGroup.Post.
func shardedRing(nodes int) *ring {
	cfg := DefaultConfig()
	g := sim.NewShardGroup(nodes, 2, cfg.WireLatency)
	engines := make([]*sim.Engine, nodes)
	for i := range engines {
		engines[i] = g.Engine(i)
	}
	f := NewSharded(engines, cfg, g.Post)
	return newRing(f, func() {
		for f.InFlight() > 0 {
			g.RunUntil(g.Now() + sim.Millisecond)
		}
	})
}

// TestFabricSteadyStateAllocs pins the packet path at zero allocations
// per send → deliver round trip once the per-node flight lists are warm,
// on a one-engine fabric, a sharded one, and a lossy one that
// retransmits.
func TestFabricSteadyStateAllocs(t *testing.T) {
	lossy := oneEngineRing(4)
	attempts := make([]int, 4) // per src: the loss hook runs on src's engine
	lossy.f.SetLoss(func(src, _ int, _ sim.Time) bool {
		attempts[src]++
		return attempts[src]%3 == 0
	})
	for _, tc := range []struct {
		name string
		r    *ring
	}{
		{"one-engine", oneEngineRing(4)},
		{"sharded", shardedRing(4)},
		{"lossy", lossy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const hops = 100
			tc.r.hops(hops) // warm the flight lists, heaps and outboxes
			sent := tc.r.f.PacketsSent()
			avg := testing.AllocsPerRun(20, func() { tc.r.hops(hops) })
			if got, want := tc.r.f.PacketsSent()-sent, uint64(21*hops); got != want {
				t.Fatalf("sent %d packets, want %d", got, want)
			}
			if tc.r.f.InFlight() != 0 {
				t.Fatalf("%d packets still in flight", tc.r.f.InFlight())
			}
			if avg > 0 {
				t.Fatalf("warm fabric allocates %.2f objects per %d round trips, want 0", avg, hops)
			}
		})
	}
	if lossy.f.Retransmits() == 0 {
		t.Fatal("lossy fabric never retransmitted")
	}
}

// TestFlightListCapped proves a receiver's flight list stays bounded
// under incast: every record of many converging senders comes back to
// the one receiver, which keeps at most maxFreeFlights of them.
func TestFlightListCapped(t *testing.T) {
	const senders = 4 * maxFreeFlights
	eng := sim.New()
	f := New(eng, senders+1, DefaultConfig())
	deliver := func() {}
	for src := 1; src <= senders; src++ {
		f.Send(src, 0, 1500, deliver)
	}
	eng.Run()
	if f.PacketsDelivered() != senders {
		t.Fatalf("delivered %d of %d packets", f.PacketsDelivered(), senders)
	}
	if n := len(f.free[0]); n > maxFreeFlights {
		t.Fatalf("receiver's flight list grew to %d after incast, cap is %d", n, maxFreeFlights)
	}
}

// BenchmarkFabricSendDeliver measures netmodel's send → deliver path on
// a one-engine fabric: one op is one hop of a message around a 4-node
// ring, including the engine events the hop schedules.
func BenchmarkFabricSendDeliver(b *testing.B) {
	r := oneEngineRing(4)
	r.hops(100)
	b.ReportAllocs()
	b.ResetTimer()
	r.hops(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/send")
}
