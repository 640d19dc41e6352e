// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as nanoseconds in an int64 and executes
// scheduled events in (time, sequence) order, so two runs with the same
// inputs produce byte-identical traces. Every simulated node's
// virtualization substrate (PCPUs, VCPUs, NICs, disks) is driven by the
// node's own Engine; a ShardGroup runs a world's Engines in lockstep
// windows over one or more worker goroutines, and a World always runs on
// one.
package sim

import (
	"fmt"
)

// Time is a point in (or span of) virtual time, in nanoseconds.
type Time int64

// Convenient spans of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timer is one event slot: a callback armed for one instant, ordered by
// (time, sequence) with every other event of its engine. An owner that
// re-arms the same event over and over (a PCPU's slice end) embeds a
// Timer and drives it with Engine.Arm and Engine.Disarm; the zero Timer
// is disarmed and ready. At and Schedule arm Timers taken from the
// engine's free pool and hand out a Handle instead; only pooled Timers
// ever return to the pool.
type Timer struct {
	at  Time
	seq uint64
	// gen counts armings: a Handle and a lane entry each record the
	// generation they belong to, so neither acts on a later arming.
	gen    uint64
	fn     func()
	index  int // heap index; -1 when not in the heap (fired, disarmed or in the lane)
	armed  bool
	pooled bool
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// Handle identifies one event scheduled with At or Schedule. The zero
// Handle refers to nothing; Cancel on it (or on a handle whose event
// already fired or was canceled, even if the underlying slot has been
// recycled for a new event) is a safe no-op.
type Handle struct {
	t   *Timer
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (h Handle) live() bool { return h.t != nil && h.t.gen == h.gen }

// At returns the virtual time the event will fire at (0 for a dead
// handle).
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.t.at
}

// Canceled reports whether the event was canceled or already fired.
func (h Handle) Canceled() bool { return !h.live() || !h.t.armed }

// eventQueue is a 4-ary min-heap of armed timers ordered by (at, seq). The
// heap is the simulator's hottest data structure: every Schedule, Step
// and Cancel touches it. A 4-ary layout is ~half as deep as a binary
// heap (fewer comparisons and cache lines per sift), and the inlined
// sift loops avoid container/heap's per-element interface dispatch.
// Children of node i live at 4i+1..4i+4; each *Timer carries its slot
// in index so Disarm can remove in O(log₄ n).
type eventQueue []*Timer

// before reports heap order: earlier time wins, sequence breaks ties so
// same-instant events fire in scheduling order.
func before(x, y *Timer) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// push appends ev and restores heap order.
func (q *eventQueue) push(ev *Timer) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest event.
func (q *eventQueue) popMin() *Timer {
	a := *q
	min := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if n > 0 {
		a[0] = last
		q.siftDown(0)
	}
	min.index = -1
	return min
}

// remove deletes the event at slot i (Disarm's path).
func (q *eventQueue) remove(i int) {
	a := *q
	ev := a[i]
	n := len(a) - 1
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if i < n {
		a[i] = last
		q.siftDown(i)
		if last.index == i {
			q.siftUp(i)
		}
	}
	ev.index = -1
}

func (q *eventQueue) siftUp(i int) {
	a := *q
	ev := a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !before(ev, a[p]) {
			break
		}
		a[i] = a[p]
		a[i].index = i
		i = p
	}
	a[i] = ev
	ev.index = i
}

func (q *eventQueue) siftDown(i int) {
	a := *q
	n := len(a)
	ev := a[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(a[c], a[best]) {
				best = c
			}
		}
		if !before(a[best], ev) {
			break
		}
		a[i] = a[best]
		a[i].index = i
		i = best
	}
	a[i] = ev
	ev.index = i
}

// laneEntry is one same-instant event: a bare callback from Defer (t is
// nil), or the arming gen of timer t. A timer disarmed since (or
// disarmed and re-armed) no longer matches its entry, which the lane
// then skips.
type laneEntry struct {
	fn  func()
	t   *Timer
	gen uint64
}

// stale reports whether the entry's timer was disarmed after it was
// queued.
func (le *laneEntry) stale() bool {
	return le.t != nil && (!le.t.armed || le.t.gen != le.gen)
}

// eventLane is the same-instant FIFO: a ring buffer of events due at the
// engine's current time. Its length is zero or a power of two, so an
// interleaved chain of zero-delay deferrals reuses the same slots instead
// of growing the buffer.
type eventLane struct {
	buf  []laneEntry
	head int
	n    int
}

func (l *eventLane) push(le laneEntry) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = le
	l.n++
}

// front returns the oldest entry; the lane must be non-empty.
func (l *eventLane) front() *laneEntry { return &l.buf[l.head] }

// pop removes the oldest entry; the lane must be non-empty.
func (l *eventLane) pop() {
	l.buf[l.head] = laneEntry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

func (l *eventLane) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 4 // small: a world has one engine, and one lane, per node
	}
	buf := make([]laneEntry, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// maxFreeEvents caps the pooled-Timer recycle list. A burst of
// cancellations (e.g. a preemption storm cancelling scheduled events)
// would otherwise grow the pool to the burst's size and pin that memory
// for the whole run; beyond the cap, retired Timers are simply dropped
// for the GC.
const maxFreeEvents = 4096

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
//
// An event is owned in one of two ways: by a Timer (pooled behind At and
// Schedule, or embedded by its owner and driven by Arm and Disarm), or
// by nobody (Defer, a bare callback for the current instant). Both draw
// one sequence number per event from the same counter, so the firing
// order is (time, sequence) whichever way an event was scheduled.
//
// Events for the current instant bypass the heap: they go to a FIFO
// lane. Every heap event due now was armed before the clock reached now,
// so its sequence number is smaller than any lane event's; and the clock
// only advances once the lane is empty. Firing heap events due now
// first, then the lane in FIFO order, is therefore exactly (time,
// sequence) order.
type Engine struct {
	now   Time
	queue eventQueue
	lane  eventLane
	seq   uint64
	// live counts scheduled events that have neither fired nor been
	// canceled: the heap plus the lane's live entries.
	live int
	// executed counts events that have fired, for diagnostics.
	executed uint64
	// free recycles fired/canceled pooled Timers, capped at
	// maxFreeEvents; Handle generations make the recycling invisible (a
	// stale Cancel is a no-op).
	free []*Timer
}

// New returns an Engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) Handle {
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		tm = &Timer{pooled: true}
	}
	e.Arm(tm, t, fn)
	return Handle{t: tm, gen: tm.gen}
}

// Schedule schedules fn to run d after the current time.
func (e *Engine) Schedule(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Defer runs fn at the current instant, after every event already due
// now: Schedule(0, fn) without a Handle, so it takes no Timer. Use it
// for deferrals that are never canceled.
func (e *Engine) Defer(fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	e.live++
	e.lane.push(laneEntry{fn: fn})
}

// Arm schedules fn on tm at absolute virtual time at, with the sequence
// number At would take at the same point. Arming an armed timer or
// arming in the past panics.
func (e *Engine) Arm(tm *Timer, at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	if tm.armed {
		panic(fmt.Sprintf("sim: arming a timer already armed for %v", tm.at))
	}
	tm.at, tm.seq, tm.fn, tm.armed = at, e.seq, fn, true
	tm.gen++
	e.seq++
	e.live++
	if at == e.now {
		tm.index = -1
		e.lane.push(laneEntry{fn: fn, t: tm, gen: tm.gen})
	} else {
		e.queue.push(tm)
	}
}

// Disarm revokes tm's pending firing; a disarmed timer is a no-op.
func (e *Engine) Disarm(tm *Timer) {
	if !tm.armed {
		return
	}
	if tm.index >= 0 {
		e.queue.remove(tm.index)
	}
	// A lane entry stays in its slot until peek reaches it and drops it
	// as stale: by then tm is disarmed or armed under a new generation.
	e.live--
	e.retire(tm)
}

// Cancel revokes a pending event. Canceling the zero Handle, an
// already-fired or already-canceled event is a no-op, even if the
// underlying slot has since been recycled for a different event.
func (e *Engine) Cancel(h Handle) {
	if h.live() {
		e.Disarm(h.t)
	}
}

// retire marks a fired or disarmed timer idle and returns a pooled one
// to the free pool, up to its cap.
func (e *Engine) retire(tm *Timer) {
	tm.armed = false
	tm.fn = nil
	if tm.pooled && len(e.free) < maxFreeEvents {
		e.free = append(e.free, tm)
	}
}

// Step fires the next pending event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	_, fromHeap, ok := e.peek()
	if ok {
		e.fire(fromHeap)
	}
	return ok
}

// fire removes the event peek found, the heap top or the lane head, and
// runs it. A timer is disarmed before its callback runs, so the callback
// may re-arm it.
func (e *Engine) fire(fromHeap bool) {
	var fn func()
	if fromHeap {
		tm := e.queue.popMin()
		if tm.at < e.now {
			panic(fmt.Sprintf("sim: clock regression: event at %v, now %v", tm.at, e.now))
		}
		e.now = tm.at
		fn = tm.fn
		e.retire(tm)
	} else {
		le := e.lane.front()
		fn = le.fn
		if le.t != nil {
			e.retire(le.t)
		}
		e.lane.pop()
	}
	e.live--
	e.executed++
	fn()
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	for {
		at, fromHeap, ok := e.peek()
		if !ok || at > t {
			break
		}
		e.fire(fromHeap)
	}
	if t > e.now {
		e.now = t
	}
}

// NextEventAt returns the timestamp of the earliest pending event, or
// false when the queue is empty. The shard scheduler uses it to decide
// which engines have work inside a synchronization window.
func (e *Engine) NextEventAt() (Time, bool) {
	at, _, ok := e.peek()
	return at, ok
}

// peek finds the next event to fire without removing it: the heap top
// when it is due now, else the lane head, else the heap top. It returns
// the event's time and whether it is the heap top; ok is false when
// nothing is pending. Stale lane entries it passes are dropped; the heap
// never holds disarmed timers (Disarm removes them).
func (e *Engine) peek() (at Time, fromHeap, ok bool) {
	for e.lane.n > 0 {
		if e.lane.front().stale() {
			e.lane.pop()
			continue
		}
		if len(e.queue) > 0 && e.queue[0].at == e.now {
			return e.now, true, true
		}
		return e.now, false, true
	}
	if len(e.queue) > 0 {
		return e.queue[0].at, true, true
	}
	return 0, false, false
}
