package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
)

// crossEvent is a cross-source event queued for delivery at a future
// synchronization window. Its key (at, src, seq) is a total order that
// does not depend on which goroutine produced it first in wall time.
type crossEvent struct {
	at  Time
	src int
	seq uint64
	dst int
	fn  func()
}

// compareCross orders cross events by their (at, src, seq) key.
func compareCross(a, b crossEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// ShardGroup runs one Engine per source domain in lockstep windows of
// one lookahead each, spreading the engines over worker goroutines — a
// conservative parallel discrete-event core.
//
// The model: the group hosts a set of source domains (in atcsched, one
// per simulated node), each with a private engine. Domains only
// influence each other through Post, which guarantees at least one
// lookahead of delay. Execution proceeds over the absolute window grid
// [k·L, (k+1)·L): at each window boundary the pending cross events whose
// timestamps fall inside the next window are sorted by (time, source,
// per-source sequence) and injected into their destination engines, then
// every worker with work runs its engines through the window, one after
// another, concurrently with the other workers. Because any event Posted
// during window k lands at or after (k+1)·L, no engine can receive an
// event in its past, and because injection order is a pure function of
// virtual time the execution is byte-identical at any worker count —
// including one.
type ShardGroup struct {
	look Time
	// engines holds one engine per source domain; seqs holds the
	// per-source Post sequence numbers (the deterministic tie-break).
	engines []*Engine
	seqs    []uint64
	// workers splits the domains into contiguous ranges, one each.
	workers []worker
	// pending holds collected cross events not yet injected.
	pending []crossEvent
	// now is the group clock; injected is the window-end watermark up to
	// which pending events have been injected; winEnd bounds the Post
	// times the current segment may produce.
	now      Time
	injected Time
	winEnd   Time
	// wg joins the goroutines of a segment's workers.
	wg sync.WaitGroup
	// halt is a pending stop request; RunUntil checks it at segment
	// boundaries only, so the stop point is deterministic in virtual
	// time, and clears it when it returns.
	halt atomic.Bool
	// stats counts synchronization activity; every field is updated on
	// the barrier goroutine only.
	stats SyncStats
}

// never is the next-event time of a worker with nothing pending.
const never = Time(math.MaxInt64)

// worker is one of a group's goroutines. Of n domains, worker k of K
// runs the domains d with d·K/n = k (integer division): the range
// [⌈k·n/K⌉, ⌈(k+1)·n/K⌉), lo to hi. Only the worker's goroutine touches
// outbox, next and fired while a segment runs.
type worker struct {
	lo, hi int
	// outbox collects the events its domains Post during a segment.
	outbox []crossEvent
	// next is the earliest pending event time of the worker's engines
	// (never when none); fired counts the events its last run fired.
	next  Time
	fired uint64
	// labels, when set, are the pprof labels of its segment goroutines.
	labels *pprof.LabelSet
}

// SyncStats counts a shard group's synchronization activity. All fields
// are cumulative over the group's lifetime and are maintained on the
// barrier goroutine, so they are deterministic for a deterministic run.
type SyncStats struct {
	// Windows counts lookahead windows whose cross events were injected.
	Windows uint64
	// Segments counts executed segments (at least one engine had work).
	Segments uint64
	// ParallelSegments counts segments that fanned out over goroutines
	// (more than one worker had work).
	ParallelSegments uint64
	// CrossPosted counts cross events collected from worker outboxes.
	CrossPosted uint64
	// CrossInjected counts cross events injected into destination
	// engines at window boundaries.
	CrossInjected uint64
	// WorkEvents sums, over segments, the events every worker fired in
	// the segment: the events a serial run would fire.
	WorkEvents uint64
	// SpanEvents sums, over segments, the events the busiest worker fired
	// in the segment: the critical path of a run with one core per
	// worker. WorkEvents/SpanEvents bounds the speedup the workers can
	// give.
	SpanEvents uint64
}

// NewShardGroup creates one engine for each of domains source domains,
// run by workers goroutines (clamped to [1, domains]) and synchronized at
// the given lookahead (which must be positive — a zero lookahead would
// serialize every event through the barrier).
func NewShardGroup(domains, workers int, lookahead Time) *ShardGroup {
	if domains < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one domain, got %d", domains))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard group needs a positive lookahead, got %v", lookahead))
	}
	g := &ShardGroup{look: lookahead, engines: make([]*Engine, domains), seqs: make([]uint64, domains)}
	all := make([]Engine, domains) // one block: a worker scans its engines in order
	for i := range g.engines {
		g.engines[i] = &all[i]
	}
	k := min(max(workers, 1), domains)
	g.workers = make([]worker, k)
	for i := range g.workers {
		g.workers[i] = worker{lo: (i*domains + k - 1) / k, hi: ((i+1)*domains + k - 1) / k, next: never}
	}
	return g
}

// Workers returns the number of worker goroutines.
func (g *ShardGroup) Workers() int { return len(g.workers) }

// Engine returns source domain i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the synchronization window length.
func (g *ShardGroup) Lookahead() Time { return g.look }

// Stats returns the group's synchronization counters. Call between
// RunUntil calls (the counters are maintained on the barrier goroutine).
func (g *ShardGroup) Stats() SyncStats { return g.stats }

// SetWorkerLabels attaches pprof labels (key/value pairs) to worker k's
// segment goroutines, so CPU/mutex profiles of a parallel run attribute
// samples to workers. Call before RunUntil; nil/empty kv clears.
func (g *ShardGroup) SetWorkerLabels(k int, kv ...string) {
	g.workers[k].labels = nil
	if len(kv) > 0 {
		ls := pprof.Labels(kv...)
		g.workers[k].labels = &ls
	}
}

// workerOf returns the worker that runs domain d.
func (g *ShardGroup) workerOf(d int) *worker {
	return &g.workers[d*len(g.workers)/len(g.engines)]
}

// Post queues fn to run at absolute time at in dst's engine, attributed
// to source domain src. It must be called from src's engine (or between
// RunUntil calls) and at must be at least one lookahead ahead of the
// running window's start — which any caller adding >= Lookahead() of
// delay to its current engine time satisfies by construction.
func (g *ShardGroup) Post(src, dst int, at Time, fn func()) {
	if src < 0 || src >= len(g.engines) || dst < 0 || dst >= len(g.engines) {
		panic(fmt.Sprintf("sim: Post with unknown source/destination %d->%d", src, dst))
	}
	if at < g.winEnd {
		panic(fmt.Sprintf("sim: Post at %v violates lookahead (window ends %v)", at, g.winEnd))
	}
	wk := g.workerOf(src)
	wk.outbox = append(wk.outbox, crossEvent{at: at, src: src, seq: g.seqs[src], dst: dst, fn: fn})
	g.seqs[src]++
}

// Now returns the group clock (the time every engine has reached at the
// last barrier).
func (g *ShardGroup) Now() Time { return g.now }

// Executed sums the event counts of all engines.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.executed
	}
	return n
}

// Pending sums the queued events of all engines plus undelivered cross
// events.
func (g *ShardGroup) Pending() int {
	n := len(g.pending)
	for _, e := range g.engines {
		n += e.Pending()
	}
	for i := range g.workers {
		n += len(g.workers[i].outbox)
	}
	return n
}

// RequestStop asks the running (or next) RunUntil to return at the end
// of the current segment: the window end or RunUntil's target, whichever
// comes first. Safe to call from any engine's callbacks; the stop lands
// at a point that is a pure function of virtual time, so stopped runs
// stay deterministic. The request is one-shot: the RunUntil it
// interrupts reports and clears it.
func (g *ShardGroup) RequestStop() { g.halt.Store(true) }

// collect drains every worker's outbox into pending (barrier-side only).
func (g *ShardGroup) collect() {
	for i := range g.workers {
		if ob := g.workers[i].outbox; len(ob) > 0 {
			g.stats.CrossPosted += uint64(len(ob))
			g.pending = append(g.pending, ob...)
			g.workers[i].outbox = ob[:0]
		}
	}
}

// inject sorts the pending cross events and schedules those with
// timestamps before wEnd into their destination engines. Injection in
// sorted (at, src, seq) order assigns engine sequence numbers — and thus
// same-instant execution order — deterministically.
func (g *ShardGroup) inject(wEnd Time) {
	if len(g.pending) == 0 {
		return
	}
	slices.SortFunc(g.pending, compareCross)
	n := 0
	for ; n < len(g.pending) && g.pending[n].at < wEnd; n++ {
		ev := g.pending[n]
		g.engines[ev.dst].At(ev.at, ev.fn)
		wk := g.workerOf(ev.dst)
		wk.next = min(wk.next, ev.at)
	}
	if n > 0 {
		g.stats.CrossInjected += uint64(n)
		g.pending = append(g.pending[:0], g.pending[n:]...)
	}
}

// earliest returns the earliest actionable timestamp across all workers
// and pending cross events (never when everything is drained).
func (g *ShardGroup) earliest() Time {
	at := never
	for i := range g.workers {
		at = min(at, g.workers[i].next)
	}
	for i := range g.pending {
		at = min(at, g.pending[i].at)
	}
	return at
}

// run drives the worker's engines that are behind t to t, one after
// another, and records the events they fired and their earliest pending
// event. An engine already at t fires nothing, not even events due at t.
func (g *ShardGroup) run(wk *worker, t Time) {
	next, fired := never, uint64(0)
	for _, e := range g.engines[wk.lo:wk.hi] {
		if e.now < t {
			n := e.executed
			e.RunUntil(t)
			fired += e.executed - n
		}
		if at, ok := e.NextEventAt(); ok {
			next = min(next, at)
		}
	}
	wk.next, wk.fired = next, fired
}

// runSegment runs every worker with work to segEnd: the first on the
// barrier goroutine, the others on one goroutine each. Idle workers'
// engine clocks catch up in align.
func (g *ShardGroup) runSegment(segEnd Time) {
	g.stats.Segments++
	var first *worker
	for i := range g.workers {
		switch wk := &g.workers[i]; {
		case wk.next > segEnd:
		case first == nil:
			first = wk
		default:
			g.wg.Add(1)
			go g.runAsync(wk, segEnd)
		}
	}
	if first != nil { // nil: only a cross event due at segEnd, injected with the next window
		g.run(first, segEnd)
	}
	g.wg.Wait()
	if g.countWork() > 1 {
		g.stats.ParallelSegments++
	}
}

// runAsync is run on a goroutine of its own, labelled for pprof
// attribution when SetWorkerLabels was called.
func (g *ShardGroup) runAsync(wk *worker, t Time) {
	defer g.wg.Done()
	if wk.labels == nil {
		g.run(wk, t)
		return
	}
	pprof.Do(context.Background(), *wk.labels, func(context.Context) { g.run(wk, t) })
}

// countWork adds the workers' last-run event counts to the work and span
// counters, resets them, and returns how many workers fired events.
func (g *ShardGroup) countWork() (busy int) {
	var span uint64
	for i := range g.workers {
		wk := &g.workers[i]
		if wk.fired > 0 {
			busy++
		}
		g.stats.WorkEvents += wk.fired
		span = max(span, wk.fired)
		wk.fired = 0
	}
	g.stats.SpanEvents += span
	return busy
}

// RunUntil drives all engines to virtual time t, synchronizing at every
// window boundary. It returns early when RequestStop was observed at a
// segment boundary, and reports whether a stop request landed (clearing
// it, so the next RunUntil runs on). Engine clocks are aligned to Now()
// on return (see align).
func (g *ShardGroup) RunUntil(t Time) bool {
	// Posts made between RunUntil calls wait in the outboxes, and events
	// scheduled between them sit in the engines; collect, and align to
	// refresh the workers' next events, or the skip-ahead below would not
	// see them.
	g.collect()
	g.align()
	for g.now < t && !g.halt.Load() {
		wEnd := (g.now/g.look + 1) * g.look
		if g.injected < wEnd {
			g.inject(wEnd)
			g.injected = wEnd
			g.stats.Windows++
		}
		segEnd := min(wEnd, t)
		if next := g.earliest(); next > segEnd {
			// Nothing fires in this segment: skip ahead to the window
			// holding the next event (or to t) without spinning barriers
			// through dead time.
			if next > t {
				g.now = t
			} else {
				g.now = (next / g.look) * g.look
			}
			continue
		}
		g.winEnd = wEnd
		g.runSegment(segEnd)
		g.now = segEnd
		g.collect()
	}
	g.align()
	return g.halt.Swap(false)
}

// align brings every engine's clock up to Now() and recomputes every
// worker's next event. An engine that the skip-ahead or an idle worker
// left behind fires its events due exactly at Now() here, on the
// barrier goroutine; they count as one more segment's work and span.
func (g *ShardGroup) align() {
	for i := range g.workers {
		g.run(&g.workers[i], g.now)
	}
	g.countWork()
}
