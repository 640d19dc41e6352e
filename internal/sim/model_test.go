package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// refEvent mirrors one scheduled callback in the reference model.
type refEvent struct {
	at       Time
	seq      int
	canceled bool
}

// TestEngineMatchesReferenceModel drives the engine with a random script
// of schedule/cancel operations and compares the firing order against a
// naive sort-based model — the event pool and heap must be perfectly
// invisible.
func TestEngineMatchesReferenceModel(t *testing.T) {
	type op struct {
		Delay  uint16
		Cancel uint8 // cancel the (Cancel % scheduled)-th event before adding
	}
	f := func(ops []op) bool {
		e := New()
		var model []refEvent
		var handles []Handle
		var fired []int

		for i, o := range ops {
			if len(handles) > 0 && o.Cancel%3 == 0 {
				idx := int(o.Cancel) % len(handles)
				e.Cancel(handles[idx])
				model[idx].canceled = true
			}
			seq := i
			ev := e.Schedule(Time(o.Delay), func() { fired = append(fired, seq) })
			handles = append(handles, ev)
			model = append(model, refEvent{at: e.Now() + Time(o.Delay), seq: seq})
		}
		e.Run()

		// Reference: uncanceled events sorted by (at, seq). Because all
		// scheduling happened before any firing (Now()==0 during setup),
		// the order is exactly this sort.
		var want []int
		idxs := make([]int, 0, len(model))
		for i, m := range model {
			if !m.canceled {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			if model[idxs[a]].at != model[idxs[b]].at {
				return model[idxs[a]].at < model[idxs[b]].at
			}
			return model[idxs[a]].seq < model[idxs[b]].seq
		})
		for _, i := range idxs {
			want = append(want, model[i].seq)
		}
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEventPoolReuseIsInvisible hammers schedule/fire/cancel cycles and
// verifies late cancels of fired events never affect recycled ones.
func TestEventPoolReuseIsInvisible(t *testing.T) {
	e := New()
	var stale []Handle
	fired := 0
	for round := 0; round < 50; round++ {
		ev := e.Schedule(Time(round), func() { fired++ })
		stale = append(stale, ev)
		e.Run()
		// Cancel all stale (already fired) handles: must be no-ops even
		// though their objects may have been recycled... they were not
		// rescheduled yet, so this is the documented-legal window.
		for _, s := range stale {
			e.Cancel(s)
		}
	}
	if fired != 50 {
		t.Fatalf("fired = %d, want 50", fired)
	}
	// After all that cancel noise, fresh events must still fire.
	ok := false
	e.Schedule(1, func() { ok = true })
	e.Run()
	if !ok {
		t.Fatal("fresh event killed by stale cancel")
	}
}

// scriptTimers is the number of owned timers a script drives.
const scriptTimers = 4

// engineAPI is the surface the re-entrant script drives. Handles are
// indices into the order events were scheduled in, and timers indices
// into a fixed set of owned timers, so the real engine and the reference
// model can be driven by the same script.
type engineAPI interface {
	now() Time
	schedule(d Time, fn func())
	cancel(h int)
	handleAt(h int) (Time, bool) // false when the handle is canceled or fired
	deferFn(fn func())
	arm(k int, d Time, fn func())
	disarm(k int)
	armed(k int) bool
	step() bool
	runUntil(t Time)
	pending() int
}

// realEngine adapts Engine to engineAPI.
type realEngine struct {
	e       *Engine
	handles []Handle
	timers  [scriptTimers]Timer
}

func (r *realEngine) now() Time                    { return r.e.Now() }
func (r *realEngine) schedule(d Time, fn func())   { r.handles = append(r.handles, r.e.Schedule(d, fn)) }
func (r *realEngine) cancel(h int)                 { r.e.Cancel(r.handles[h]) }
func (r *realEngine) deferFn(fn func())            { r.e.Defer(fn) }
func (r *realEngine) arm(k int, d Time, fn func()) { r.e.Arm(&r.timers[k], r.e.Now()+d, fn) }
func (r *realEngine) disarm(k int)                 { r.e.Disarm(&r.timers[k]) }
func (r *realEngine) armed(k int) bool             { return r.timers[k].Armed() }
func (r *realEngine) step() bool                   { return r.e.Step() }
func (r *realEngine) runUntil(t Time)              { r.e.RunUntil(t) }
func (r *realEngine) pending() int                 { return r.e.Pending() }

// handleAt reports At only for a live handle: a fired or canceled
// handle's At depends on whether its Event was recycled yet.
func (r *realEngine) handleAt(h int) (Time, bool) {
	if r.handles[h].Canceled() {
		return 0, false
	}
	return r.handles[h].At(), true
}

// refEngine is the reference model: a slice kept sorted by (at, seq),
// with no pool, no heap, no lane and no timer slots. A deferral is an
// event without a handle, and a timer is the handle of its latest
// arming.
type refEngine struct {
	clock  Time
	seq    int
	queue  []*refScheduled
	evs    []*refScheduled
	timers [scriptTimers]*refScheduled
}

type refScheduled struct {
	at   Time
	seq  int
	fn   func()
	done bool // fired or canceled
}

func (m *refEngine) now() Time { return m.clock }

func (m *refEngine) schedule(d Time, fn func()) { m.evs = append(m.evs, m.insert(d, fn)) }

// insert queues fn d from now behind every event at the same time.
func (m *refEngine) insert(d Time, fn func()) *refScheduled {
	ev := &refScheduled{at: m.clock + d, seq: m.seq, fn: fn}
	m.seq++
	i := sort.Search(len(m.queue), func(i int) bool { return m.queue[i].at > ev.at })
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = ev
	return ev
}

func (m *refEngine) cancel(h int) { m.revoke(m.evs[h]) }

func (m *refEngine) revoke(ev *refScheduled) {
	if ev == nil || ev.done {
		return
	}
	ev.done = true
	for i, q := range m.queue {
		if q == ev {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

func (m *refEngine) deferFn(fn func()) { m.insert(0, fn) }

func (m *refEngine) arm(k int, d Time, fn func()) {
	if m.armed(k) {
		panic("model: arming an armed timer")
	}
	m.timers[k] = m.insert(d, fn)
}

func (m *refEngine) disarm(k int)     { m.revoke(m.timers[k]) }
func (m *refEngine) armed(k int) bool { return m.timers[k] != nil && !m.timers[k].done }

func (m *refEngine) handleAt(h int) (Time, bool) {
	if ev := m.evs[h]; !ev.done {
		return ev.at, true
	}
	return 0, false
}

func (m *refEngine) step() bool {
	if len(m.queue) == 0 {
		return false
	}
	ev := m.queue[0]
	m.queue = m.queue[1:]
	m.clock = ev.at
	ev.done = true
	ev.fn()
	return true
}

func (m *refEngine) runUntil(t Time) {
	for len(m.queue) > 0 && m.queue[0].at <= t {
		m.step()
	}
	if t > m.clock {
		m.clock = t
	}
}

func (m *refEngine) pending() int { return len(m.queue) }

// scriptDelay maps a script byte to a delay: half of all bytes give a
// zero-delay deferral, most of the rest a short delay that collides with
// other events, and a few a long one.
func scriptDelay(b byte) Time {
	switch {
	case b < 128:
		return 0
	case b < 240:
		return Time(b%4) + 1
	default:
		return Time(b)
	}
}

// runEngineScript drives api with script and returns the trace: every
// firing (event id, time, Pending on entry) and, after every top-level
// operation, the clock, Pending and any handle or timer query. Callbacks
// read the script too, so events schedule, defer, cancel, arm and disarm
// re-entrantly — mostly at the current instant, while the heap may hold
// events due at it and the lane may hold stale slots of re-armed timers.
// Arming an armed timer disarms it first. Once the script is exhausted
// every read returns 0, callbacks stop scheduling, and the run drains.
func runEngineScript(api engineAPI, script []byte) []int64 {
	var trace []int64
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		b := script[pos]
		pos++
		return b
	}
	ids, scheduled := 0, 0
	query := func(h int) {
		at, live := api.handleAt(h)
		trace = append(trace, -3, int64(h), int64(at))
		if live {
			trace = append(trace, 1)
		} else {
			trace = append(trace, 0)
		}
	}
	queryTimer := func(k int) {
		trace = append(trace, -5, int64(k))
		if api.armed(k) {
			trace = append(trace, 1)
		} else {
			trace = append(trace, 0)
		}
	}
	var callback func() func()
	// op performs one operation picked by b; it reports false for the
	// operations only the top level performs.
	op := func(b byte) bool {
		switch b % 12 {
		case 0, 1:
			d := scriptDelay(next())
			scheduled++
			api.schedule(d, callback())
		case 2:
			if scheduled > 0 {
				api.cancel(int(next()) % scheduled)
			}
		case 7:
			if scheduled > 0 {
				query(int(next()) % scheduled)
			}
		case 8:
			api.deferFn(callback())
		case 9:
			k := int(next()) % scriptTimers
			d := scriptDelay(next())
			api.disarm(k)
			api.arm(k, d, callback())
		case 10:
			api.disarm(int(next()) % scriptTimers)
		case 11:
			queryTimer(int(next()) % scriptTimers)
		default:
			return false
		}
		return true
	}
	callback = func() func() {
		id := ids
		ids++
		return func() {
			trace = append(trace, -1, int64(id), int64(api.now()), int64(api.pending()))
			for n := next() % 4; n > 0; n-- {
				// Callbacks do not step or run the engine: those
				// bytes schedule, defer or arm instead, so chains of
				// callbacks neither die out nor explode.
				if b := next(); !op(b) {
					op([]byte{0, 8, 1, 9}[b%4])
				}
			}
		}
	}
	for pos < len(script) {
		if b := next(); !op(b) {
			switch b % 12 {
			case 3, 5:
				api.step()
			case 4, 6:
				api.runUntil(api.now() + scriptDelay(next()))
			}
		}
		trace = append(trace, -2, int64(api.now()), int64(api.pending()))
	}
	for api.step() {
	}
	for h := 0; h < scheduled; h++ {
		query(h)
	}
	for k := 0; k < scriptTimers; k++ {
		queryTimer(k)
	}
	return append(trace, -4, int64(api.now()), int64(api.pending()))
}

// checkEngineScript runs script on a fresh Engine and on the reference
// model and fails at the first divergence.
func checkEngineScript(t *testing.T, script []byte) {
	t.Helper()
	got := runEngineScript(&realEngine{e: New()}, script)
	want := runEngineScript(&refEngine{}, script)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			lo := max(0, i-8)
			t.Fatalf("script %x: trace diverges at %d:\n engine %v\n model  %v", script, i, got[lo:min(len(got), i+8)], want[lo:min(len(want), i+8)])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %x: trace length %d, model %d", script, len(got), len(want))
	}
}

// TestEngineMatchesReferenceModelReentrant runs random scripts in which
// callbacks schedule (zero delay heavily weighted) and cancel while
// events due at the same instant sit in the heap, with Step and
// RunUntil boundaries inside an instant, and compares the firing order,
// the clock, Pending after every step and handle state against the
// sorted-slice model.
func TestEngineMatchesReferenceModelReentrant(t *testing.T) {
	state := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 2000; i++ {
		script := make([]byte, 16+i%400)
		for j := range script {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			script[j] = byte(state >> 32)
		}
		checkEngineScript(t, script)
	}
}

// FuzzEngineOrder is the native fuzz form of the re-entrant reference
// model test.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 3})
	f.Add([]byte{0, 200, 1, 0, 3, 3, 0x41, 0, 0, 3, 4, 0})
	f.Add([]byte{0, 129, 0, 129, 3, 0x21, 0x05, 3, 2, 1, 3, 6, 3})
	f.Add([]byte("schedule, cancel, step and run until one instant"))
	// A timer armed for now, disarmed and re-armed for now behind a
	// deferral: its first lane slot must stay dead.
	f.Add([]byte{9, 0, 0, 8, 9, 0, 0, 3, 0, 3, 0, 3, 0})
	// An Arm at Now() behind two deferrals and a heap event due now.
	f.Add([]byte{0, 128, 0, 128, 3, 3, 8, 8, 9, 1, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			return
		}
		checkEngineScript(t, script)
	})
}

// TestRecycledLaneHandleStaysDead cancels a same-instant event, reuses
// its Timer for a new event while the old lane slot may still be queued,
// and checks the old handle stays dead: Canceled, At 0, and Cancel a
// no-op.
func TestRecycledLaneHandleStaysDead(t *testing.T) {
	e := New()
	var fired []string
	var old Handle
	e.Schedule(1, func() {
		old = e.Schedule(0, func() { fired = append(fired, "old") })
		if old.At() != 1 || old.Canceled() {
			t.Errorf("lane handle: At=%v Canceled=%v, want 1 false", old.At(), old.Canceled())
		}
		e.Cancel(old)
		if !old.Canceled() || e.Pending() != 0 {
			t.Errorf("after Cancel: Canceled=%v Pending=%d, want true 0", old.Canceled(), e.Pending())
		}
	})
	e.Run()
	fresh := e.Schedule(0, func() { fired = append(fired, "fresh") })
	if fresh.t != old.t {
		t.Fatal("canceled lane event was not recycled")
	}
	e.Cancel(old)
	if !old.Canceled() || old.At() != 0 || fresh.Canceled() || e.Pending() != 1 {
		t.Fatalf("stale cancel: old Canceled=%v At=%v, fresh Canceled=%v, Pending=%d",
			old.Canceled(), old.At(), fresh.Canceled(), e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != "fresh" {
		t.Fatalf("fired %v, want [fresh]", fired)
	}
}

// TestTimerRearmSkipsStaleLaneSlot arms an owned timer for the current
// instant, defers a callback behind it, then disarms and re-arms the
// timer for the same instant: the first lane slot is still queued and
// must never fire, and the re-armed callback fires once, after the
// deferral.
func TestTimerRearmSkipsStaleLaneSlot(t *testing.T) {
	e := New()
	var tm Timer
	var fired []string
	e.Schedule(1, func() {
		e.Arm(&tm, e.Now(), func() { fired = append(fired, "first") })
		e.Defer(func() { fired = append(fired, "defer") })
		e.Disarm(&tm)
		if tm.Armed() || e.Pending() != 1 {
			t.Errorf("after Disarm: Armed=%v Pending=%d, want false 1", tm.Armed(), e.Pending())
		}
		e.Arm(&tm, e.Now(), func() {
			if tm.Armed() {
				t.Error("timer still armed inside its own callback")
			}
			fired = append(fired, "second")
		})
	})
	e.Run()
	if got := strings.Join(fired, ","); got != "defer,second" {
		t.Fatalf("fired %s, want defer,second", got)
	}
	if tm.Armed() || e.Pending() != 0 {
		t.Fatalf("after Run: Armed=%v Pending=%d", tm.Armed(), e.Pending())
	}
}

// TestArmAtNowQueuesBehindLane arms an owned timer for the current
// instant while two deferrals wait in the lane and a heap event is due
// now: it takes its sequence number where it is armed, so it fires last.
func TestArmAtNowQueuesBehindLane(t *testing.T) {
	e := New()
	var tm Timer
	var fired []string
	note := func(s string) func() { return func() { fired = append(fired, s) } }
	e.Schedule(1, func() {
		e.Defer(note("a"))
		e.Defer(note("b"))
		e.Arm(&tm, e.Now(), note("timer"))
		e.Defer(note("c"))
	})
	e.Schedule(1, note("heap"))
	e.Run()
	if got := strings.Join(fired, ","); got != "heap,a,b,timer,c" {
		t.Fatalf("fired %s, want heap,a,b,timer,c", got)
	}
}

// TestOwnedTimerNeverPooled fires, disarms and lane-cancels an owned
// timer among pooled events and checks that it never reaches the free
// pool, so At can never hand it out behind its owner's back.
func TestOwnedTimerNeverPooled(t *testing.T) {
	e := New()
	var tm Timer
	noop := func() {}
	for i := 0; i < 50; i++ {
		e.Arm(&tm, e.Now()+Time(i%3), noop) // i%3 == 0 takes the lane
		e.Schedule(Time(i%2), noop)
		if i%2 == 0 {
			e.Disarm(&tm)
		}
		e.Run()
		for _, f := range e.free {
			if f == &tm {
				t.Fatalf("round %d: owned timer in the free pool", i)
			}
		}
	}
	if len(e.free) == 0 {
		t.Fatal("pooled events were not recycled")
	}
}
