package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t    Time
		sec  float64
		ms   float64
		us   float64
		text string
	}{
		{Second, 1, 1000, 1e6, "1.000s"},
		{30 * Millisecond, 0.03, 30, 30000, "30.000ms"},
		{300 * Microsecond, 0.0003, 0.3, 300, "300.000us"},
		{5 * Nanosecond, 5e-9, 5e-6, 0.005, "5ns"},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); got != c.sec {
			t.Errorf("%v.Seconds() = %v, want %v", c.t, got, c.sec)
		}
		if got := c.t.Millis(); got != c.ms {
			t.Errorf("%v.Millis() = %v, want %v", c.t, got, c.ms)
		}
		if got := c.t.Micros(); got != c.us {
			t.Errorf("%v.Micros() = %v, want %v", c.t, got, c.us)
		}
		if got := c.t.String(); got != c.text {
			t.Errorf("String() = %q, want %q", got, c.text)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMillis(0.3) != 300*Microsecond {
		t.Errorf("FromMillis(0.3) = %v", FromMillis(0.3))
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed() = %d, want 3", e.Executed())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(Handle{})
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEngineCancelHeadThenRun(t *testing.T) {
	e := New()
	var got []int
	head := e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Cancel(head)
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now() = %v, want 12 after RunUntil", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired = %v after Run", fired)
	}
}

func TestEngineReentrantScheduling(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.Schedule(10, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 40 {
		t.Fatalf("Now() = %v, want 40", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestEnginePanicsOnNilCallback(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(1, nil)
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: canceling an arbitrary subset leaves exactly the others firing.
func TestEngineCancelSubsetProperty(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		e := New()
		fired := make(map[int]bool)
		evs := make([]Handle, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = e.Schedule(Time(d), func() { fired[i] = true })
		}
		want := len(delays)
		for i := range delays {
			if i < len(mask) && mask[i] {
				e.Cancel(evs[i])
				want--
			}
		}
		e.Run()
		if len(fired) != want {
			return false
		}
		for i := range delays {
			canceled := i < len(mask) && mask[i]
			if fired[i] == canceled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

// TestEngineHeapStress drives the 4-ary event queue through a large
// interleaved push/cancel/fire sequence and checks the global firing
// order, exercising deep sifts and mid-heap removals that the small
// property tests rarely reach.
func TestEngineHeapStress(t *testing.T) {
	e := New()
	const n = 20000
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	var fired []Time
	handles := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		d := Time(next() % 1e6)
		handles = append(handles, e.Schedule(d, func() { fired = append(fired, e.Now()) }))
		// Cancel ~1/4 of the queued events, from arbitrary heap slots.
		if next()%4 == 0 {
			e.Cancel(handles[int(next()%uint64(len(handles)))])
		}
	}
	canceled := 0
	for _, h := range handles {
		if h.Canceled() {
			canceled++
		}
	}
	e.Run()
	if len(fired)+canceled != n {
		t.Fatalf("fired %d + canceled %d != scheduled %d", len(fired), canceled, n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after drain", e.Pending())
	}
}

// TestEngineSteadyStateAllocs checks that event recycling keeps the
// schedule→fire→reschedule loop allocation-free once warm.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := New()
	var churn func()
	budget := 0
	churn = func() {
		if budget > 0 {
			budget--
			e.Schedule(Time(budget%311)+1, churn)
		}
	}
	// Warm the free list and the queue's backing array.
	budget = 2000
	e.Schedule(1, churn)
	e.Run()
	avg := testing.AllocsPerRun(50, func() {
		budget = 100
		e.Schedule(1, churn)
		e.Run()
	})
	if avg > 1 {
		t.Errorf("steady-state allocs per 101-event burst = %.1f, want ~0", avg)
	}

	// Zero-delay chains through the same-instant lane: each event defers
	// two more to the current instant (so the lane wraps while it holds
	// live entries) and cancels one of them, plus a timed hop.
	var defer2 func()
	defer2 = func() {
		if budget <= 0 {
			return
		}
		budget--
		e.Schedule(0, defer2)
		h := e.Schedule(0, defer2)
		if budget%3 == 0 {
			e.Cancel(h)
		}
		if budget%16 == 0 {
			e.Schedule(Time(budget%7)+1, defer2)
		}
	}
	budget = 2000
	e.Schedule(1, defer2)
	e.Run()
	avg = testing.AllocsPerRun(50, func() {
		budget = 200
		e.Schedule(1, defer2)
		e.Run()
	})
	if avg > 1 {
		t.Errorf("steady-state allocs per zero-delay chain burst = %.1f, want ~0", avg)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", e.Pending())
	}

	// The handle-free paths: deferrals and owned timers. Each callback
	// (fired by its timer or deferred by its neighbour) moves its own
	// timer, defers its neighbour, and every fourth time disarms and
	// re-arms the timer, sometimes for the current instant, leaving a
	// stale lane slot behind.
	var timers [8]Timer
	var fns [8]func()
	for i := range timers {
		tm := &timers[i]
		fns[i] = func() {
			if budget <= 0 {
				return
			}
			budget--
			e.Disarm(tm)
			e.Arm(tm, e.Now()+Time(budget%5), fns[i])
			e.Defer(fns[(i+1)%8])
			if budget%4 == 0 {
				e.Disarm(tm)
				e.Arm(tm, e.Now()+Time(budget%2), fns[i])
			}
		}
	}
	budget = 2000
	e.Schedule(1, fns[0])
	e.Run()
	avg = testing.AllocsPerRun(50, func() {
		budget = 200
		e.Schedule(1, fns[0])
		e.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state allocs per Defer/Arm/Disarm burst = %.1f, want 0", avg)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", e.Pending())
	}

	// A long interleaved chain (each event defers one successor, and a
	// second event keeps the lane from ever emptying) reuses lane slots.
	var chain func()
	chain = func() {
		if budget > 0 {
			budget--
			e.Schedule(0, chain)
		}
	}
	budget = 100000
	e.Schedule(1, chain)
	e.Schedule(1, chain)
	e.Run()
	if n := len(e.lane.buf); n > 4096 {
		t.Errorf("lane buffer grew to %d slots over a 100000-event chain", n)
	}
}
