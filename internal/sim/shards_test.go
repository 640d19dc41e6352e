package sim

import (
	"fmt"
	"testing"
)

// TestFreePoolCapped proves the Event recycle list stays bounded under a
// cancel-heavy burst (the pool used to grow without limit, pinning the
// burst's memory for the whole run).
func TestFreePoolCapped(t *testing.T) {
	e := New()
	handles := make([]Handle, 0, 4*maxFreeEvents)
	for i := 0; i < 4*maxFreeEvents; i++ {
		handles = append(handles, e.Schedule(Time(i+1), func() {}))
	}
	for _, h := range handles {
		e.Cancel(h)
	}
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free pool grew to %d after cancel burst, cap is %d", len(e.free), maxFreeEvents)
	}
	// Fired events respect the cap too.
	for i := 0; i < 4*maxFreeEvents; i++ {
		e.Schedule(Time(i+1), func() {})
	}
	e.Run()
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free pool grew to %d after run, cap is %d", len(e.free), maxFreeEvents)
	}
}

// TestSteadyStateAllocs is the alloc-count regression test for the event
// pool: once warm, a schedule/fire cycle must reuse pooled Events rather
// than allocate.
func TestSteadyStateAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		e.Schedule(1, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if avg > 0 {
		t.Fatalf("steady-state schedule+fire allocates %.2f objects per cycle, want 0", avg)
	}
}

// shardScript runs a fixed cross-source ping-pong script on a group with
// the given worker count, returning an execution log that must be
// identical for every worker count.
func shardScript(t *testing.T, workers int) string {
	t.Helper()
	const look = 50 * Microsecond
	const sources = 4
	g := NewShardGroup(sources, workers, look)
	// One log per source: each source's events run on exactly one worker's
	// goroutine, so per-source appends are race-free, and the per-source
	// event order (with timestamps) is the determinism contract.
	logs := make([][]string, sources)
	var hop func(src, hops int) func()
	hop = func(src, hops int) func() {
		return func() {
			eng := g.Engine(src)
			logs[src] = append(logs[src], fmt.Sprintf("src%d hop%d at=%d", src, hops, eng.Now()))
			if hops == 0 {
				return
			}
			dst := (src + 1) % sources
			// Cross-source: at least one lookahead of delay.
			g.Post(src, dst, eng.Now()+look+Time(src+1)*Microsecond, hop(dst, hops-1))
			// Source-local follow-up inside the window.
			eng.Schedule(Time(hops)*Microsecond, func() {
				logs[src] = append(logs[src], fmt.Sprintf("src%d local%d at=%d", src, hops, eng.Now()))
			})
		}
	}
	for s := 0; s < sources; s++ {
		g.Engine(s).At(Time(s)*Microsecond, hop(s, 6))
	}
	g.RunUntil(5 * Millisecond)
	if got := g.Now(); got != 5*Millisecond {
		t.Fatalf("group clock %v, want 5ms", got)
	}
	out := ""
	for _, l := range logs {
		for _, line := range l {
			out += line + "\n"
		}
	}
	return out
}

// TestShardGroupDeterministic proves the cross-source delivery order is
// a pure function of virtual time: the same script executes identically
// at worker counts 1 to 4, so with even and uneven source ranges.
func TestShardGroupDeterministic(t *testing.T) {
	ref := shardScript(t, 1)
	for workers := 2; workers <= 4; workers++ {
		if got := shardScript(t, workers); got != ref {
			t.Errorf("%d workers: execution log diverged from serial reference\nref:\n%s\ngot:\n%s", workers, ref, got)
		}
	}
}

// TestShardGroupStop proves RequestStop is one-shot: RunUntil reports it
// and ends at the end of the segment it landed in (the window end, or
// the target when that comes first), and the next RunUntil runs on with
// no reset.
func TestShardGroupStop(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(2, 2, look)
	// Both workers request the stop from inside one parallel segment.
	g.Engine(0).At(10*Microsecond, g.RequestStop)
	g.Engine(1).At(20*Microsecond, g.RequestStop)
	fired := 0
	g.Engine(1).At(300*Microsecond, func() { fired++ })
	if !g.RunUntil(Millisecond) {
		t.Fatal("RunUntil did not report the stop")
	}
	if fired != 0 || g.Now() != look {
		t.Fatalf("stopped with fired=%d at %v, want no later event and the window end %v", fired, g.Now(), look)
	}
	if g.RunUntil(Millisecond) {
		t.Fatal("second RunUntil reported a stop that was already consumed")
	}
	if fired != 1 || g.Now() != Millisecond {
		t.Fatalf("after the stop: fired=%d now=%v, want the later event and 1ms", fired, g.Now())
	}
	// A target inside a window ends the segment, so a stop there lands at
	// the target, not the window end.
	target := Millisecond + 30*Microsecond
	g.Engine(0).At(Millisecond+10*Microsecond, g.RequestStop)
	g.Engine(1).At(Millisecond+40*Microsecond, func() { fired++ })
	if !g.RunUntil(target) || g.Now() != target || fired != 1 {
		t.Fatalf("stop inside a window: now=%v fired=%d, want a reported stop at %v with the 40us event pending", g.Now(), fired, target)
	}
}

// TestShardGroupLookaheadViolation proves a Post inside the running
// window is rejected rather than silently reordered.
func TestShardGroupLookaheadViolation(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(2, 1, look)
	g.Engine(0).At(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post inside the window did not panic")
			}
		}()
		g.Post(0, 1, 2*Microsecond, func() {})
	})
	g.RunUntil(100 * Microsecond)
}

// TestShardGroupRunUntilNowIsNoOp pins the group's RunUntil contract at
// the current instant: unlike Engine.RunUntil, RunUntil(t) with
// t <= Now() fires nothing, not even events due at exactly Now(); they
// fire on the next RunUntil to a later time.
func TestShardGroupRunUntilNowIsNoOp(t *testing.T) {
	g := NewShardGroup(1, 1, 50*Microsecond)
	fired := 0
	g.Engine(0).At(0, func() { fired++ })
	g.RunUntil(0)
	if fired != 0 || g.Now() != 0 {
		t.Fatalf("RunUntil(0) at t=0: fired=%d now=%v, want nothing fired at 0", fired, g.Now())
	}
	g.RunUntil(Microsecond)
	if fired != 1 {
		t.Fatalf("event due at 0 fired %d times after RunUntil(1µs), want 1", fired)
	}
	g.Engine(0).At(Microsecond, func() { fired++ })
	g.RunUntil(Microsecond / 2) // t < Now(): no-op, clock does not move back
	if fired != 1 || g.Now() != Microsecond {
		t.Fatalf("RunUntil into the past: fired=%d now=%v, want 1 and 1µs", fired, g.Now())
	}
	// An engine reference for contrast: Engine.RunUntil fires events due
	// at exactly its current time.
	e := New()
	e.At(0, func() { fired++ })
	e.RunUntil(0)
	if fired != 2 {
		t.Fatalf("Engine.RunUntil(0) fired %d events in total, want 2", fired)
	}
}

// TestShardGroupPostBetweenRuns pins Post's "or between RunUntil calls"
// contract: a cross event posted while the group is idle fires at its
// time, even when no other event would run a segment before it.
func TestShardGroupPostBetweenRuns(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(2, 2, look)
	g.RunUntil(look / 2)
	var at Time
	g.Post(0, 1, g.Now()+look, func() { at = g.Engine(1).Now() })
	g.RunUntil(10 * look)
	if want := look/2 + look; at != want {
		t.Fatalf("cross event posted between runs fired at %v, want %v", at, want)
	}
}

// TestShardGroupWorkSpan pins the work/span counters: a segment adds
// every worker's events to WorkEvents and its busiest worker's to
// SpanEvents, and events that fire while RunUntil aligns the clocks (an
// event at exactly the target, reached by skipping dead windows) count
// too, so WorkEvents equals Executed.
func TestShardGroupWorkSpan(t *testing.T) {
	const look = 50 * Microsecond
	g := NewShardGroup(2, 2, look)
	nop := func() {}
	g.Engine(0).At(10*Microsecond, nop)
	g.Engine(0).At(20*Microsecond, nop)
	g.Engine(1).At(30*Microsecond, nop)
	g.Engine(1).At(4*look, nop)
	g.RunUntil(4 * look)
	st := g.Stats()
	if st.WorkEvents != 4 || st.SpanEvents != 3 || g.Executed() != 4 {
		t.Fatalf("work=%d span=%d executed=%d, want 4, 3 (2 in the shared segment + 1 aligned) and 4",
			st.WorkEvents, st.SpanEvents, g.Executed())
	}
}
