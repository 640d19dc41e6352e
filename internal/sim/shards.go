package sim

import (
	"cmp"
	"context"
	"fmt"
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

// ShardGroup runs several Engines in lockstep windows of one lookahead
// each, executing the windows on real goroutines — a conservative
// parallel discrete-event core.
//
// The model: the group hosts a set of source domains (in atcsched, one
// per simulated node), each assigned to a shard (engine). Domains only
// influence each other through Post, which guarantees at least one
// lookahead of delay. Execution proceeds over the absolute window grid
// [k·L, (k+1)·L): at each window boundary the pending cross events whose
// timestamps fall inside the next window are sorted by (time, source,
// per-source sequence) and injected into their destination engines, then
// every engine with work runs the window concurrently. Because any event
// Posted during window k lands at or after (k+1)·L, no engine can
// receive an event in its past, and because injection order is a pure
// function of virtual time the execution is byte-identical at any shard
// count — including one.
type ShardGroup struct {
	look    Time
	engines []*Engine
	// shardOf maps a source domain to its shard; seqs holds the per-source
	// Post sequence numbers (the deterministic tie-break).
	shardOf []int
	seqs    []uint64
	// outbox collects the events Posted by each shard during a window
	// segment; only that shard's goroutine appends to its slot.
	outbox [][]crossEvent
	// pending holds collected cross events not yet injected.
	pending []crossEvent
	// now is the group clock; injected is the window-end watermark up to
	// which pending events have been injected; winEnd bounds the Post
	// times the current segment may produce.
	now      Time
	injected Time
	winEnd   Time
	// halt is a pending stop request; RunUntil checks it at segment
	// boundaries only, so the stop point is deterministic in virtual
	// time, and clears it when it returns.
	halt atomic.Bool
	// scratch avoids per-window allocation of the active-shard list;
	// counts holds the active engines' executed counts at segment start.
	scratch []int
	counts  []uint64
	// labels holds per-shard pprof label sets applied to segment
	// goroutines (nil entries: no labels).
	labels []*pprof.LabelSet
	// stats counts synchronization activity; every field is updated on
	// the barrier goroutine only.
	stats SyncStats
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
	// (more than one shard had work).
	ParallelSegments uint64
	// CrossPosted counts cross events collected from shard outboxes.
	CrossPosted uint64
	// CrossInjected counts cross events injected into destination
	// engines at window boundaries.
	CrossInjected uint64
	// WorkEvents sums, over segments, the events every active engine
	// fired in the segment: the events a serial run would fire.
	WorkEvents uint64
	// SpanEvents sums, over segments, the events the busiest engine
	// fired in the segment: the critical path of a run with one core per
	// shard. WorkEvents/SpanEvents bounds the speedup sharding can give.
	SpanEvents uint64
}

// NewShardGroup creates shards engines synchronized at the given
// lookahead (which must be positive — a zero lookahead would serialize
// every event through the barrier).
func NewShardGroup(shards int, lookahead Time) *ShardGroup {
	if shards < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard group needs a positive lookahead, got %v", lookahead))
	}
	g := &ShardGroup{look: lookahead}
	for i := 0; i < shards; i++ {
		g.engines = append(g.engines, New())
	}
	g.outbox = make([][]crossEvent, shards)
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the synchronization window length.
func (g *ShardGroup) Lookahead() Time { return g.look }

// Stats returns the group's synchronization counters. Call between
// RunUntil calls (the counters are maintained on the barrier goroutine).
func (g *ShardGroup) Stats() SyncStats { return g.stats }

// SetShardLabels attaches pprof labels (key/value pairs) to shard i's
// segment goroutines, so CPU/mutex profiles of a sharded run attribute
// samples to shards. Call before RunUntil; nil/empty kv clears.
func (g *ShardGroup) SetShardLabels(shard int, kv ...string) {
	if shard < 0 || shard >= len(g.engines) {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", shard, len(g.engines)))
	}
	for len(g.labels) < len(g.engines) {
		g.labels = append(g.labels, nil)
	}
	if len(kv) == 0 {
		g.labels[shard] = nil
		return
	}
	ls := pprof.Labels(kv...)
	g.labels[shard] = &ls
}

// AssignSource registers source domain src on the given shard. Sources
// must be assigned densely from 0 before the first Post or RunUntil.
func (g *ShardGroup) AssignSource(src, shard int) {
	if shard < 0 || shard >= len(g.engines) {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", shard, len(g.engines)))
	}
	for len(g.shardOf) <= src {
		g.shardOf = append(g.shardOf, 0)
		g.seqs = append(g.seqs, 0)
	}
	g.shardOf[src] = shard
}

// Post queues fn to run at absolute time at in dst's engine, attributed
// to source domain src. It must be called from src's shard (or between
// RunUntil calls) and at must be at least one lookahead ahead of the
// running window's start — which any caller adding >= Lookahead() of
// delay to its current engine time satisfies by construction.
func (g *ShardGroup) Post(src, dst int, at Time, fn func()) {
	if src < 0 || src >= len(g.shardOf) || dst < 0 || dst >= len(g.shardOf) {
		panic(fmt.Sprintf("sim: Post with unassigned source/destination %d->%d", src, dst))
	}
	if at < g.winEnd {
		panic(fmt.Sprintf("sim: Post at %v violates lookahead (window ends %v)", at, g.winEnd))
	}
	sh := g.shardOf[src]
	g.outbox[sh] = append(g.outbox[sh], crossEvent{at: at, src: src, seq: g.seqs[src], dst: dst, fn: fn})
	g.seqs[src]++
}

// Now returns the group clock (the time every engine has reached at the
// last barrier).
func (g *ShardGroup) Now() Time { return g.now }

// Executed sums the event counts of all shards.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.executed
	}
	return n
}

// Pending sums the queued events of all shards plus undelivered cross
// events.
func (g *ShardGroup) Pending() int {
	n := len(g.pending)
	for _, e := range g.engines {
		n += e.Pending()
	}
	for _, ob := range g.outbox {
		n += len(ob)
	}
	return n
}

// RequestStop asks the running (or next) RunUntil to return at the end
// of the current segment: the window end or RunUntil's target, whichever
// comes first. Safe to call from any shard's callbacks; the stop lands at
// a point that is a pure function of virtual time, so stopped runs stay
// deterministic. The request is one-shot: the RunUntil it interrupts
// reports and clears it.
func (g *ShardGroup) RequestStop() { g.halt.Store(true) }

// collect drains every shard's outbox into pending (barrier-side only).
func (g *ShardGroup) collect() {
	for sh := range g.outbox {
		if len(g.outbox[sh]) > 0 {
			g.stats.CrossPosted += uint64(len(g.outbox[sh]))
			g.pending = append(g.pending, g.outbox[sh]...)
			g.outbox[sh] = g.outbox[sh][:0]
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
		g.engines[g.shardOf[ev.dst]].At(ev.at, ev.fn)
	}
	if n > 0 {
		g.stats.CrossInjected += uint64(n)
		g.pending = append(g.pending[:0], g.pending[n:]...)
	}
}

// earliest returns the earliest actionable timestamp across all engines
// and pending cross events (false when everything is drained).
func (g *ShardGroup) earliest() (Time, bool) {
	var min Time
	has := false
	for _, e := range g.engines {
		if at, ok := e.NextEventAt(); ok && (!has || at < min) {
			min, has = at, true
		}
	}
	for i := range g.pending {
		if at := g.pending[i].at; !has || at < min {
			min, has = at, true
		}
	}
	return min, has
}

// runSegment runs every engine to segEnd and counts the segment's work
// and span. Engines with no events in the segment only need their clocks
// advanced; when more than one engine has real work the segment fans out
// over goroutines (labelled for pprof attribution when SetShardLabels
// was called).
func (g *ShardGroup) runSegment(segEnd Time) {
	active := g.scratch[:0]
	for i, e := range g.engines {
		if at, ok := e.NextEventAt(); ok && at <= segEnd {
			active = append(active, i)
		}
	}
	g.scratch = active[:0] // retain capacity
	g.stats.Segments++
	counts := g.counts[:0]
	for _, i := range active {
		counts = append(counts, g.engines[i].executed)
	}
	g.counts = counts
	if len(active) <= 1 {
		for _, e := range g.engines {
			e.RunUntil(segEnd)
		}
	} else {
		g.stats.ParallelSegments++
		g.fanOut(active, segEnd)
	}
	g.countWork(active, counts)
}

// fanOut runs the active engines to segEnd on one goroutine each, then
// advances the idle engines' clocks.
func (g *ShardGroup) fanOut(active []int, segEnd Time) {
	var wg sync.WaitGroup
	for _, i := range active {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := g.engines[i]
			if i < len(g.labels) && g.labels[i] != nil {
				pprof.Do(context.Background(), *g.labels[i], func(context.Context) {
					e.RunUntil(segEnd)
				})
				return
			}
			e.RunUntil(segEnd)
		}(i)
	}
	wg.Wait()
	for _, e := range g.engines {
		if e.now < segEnd {
			e.RunUntil(segEnd) // idle engines: clock advance only
		}
	}
}

// countWork adds a finished segment's per-engine event deltas to the
// work and span counters; counts holds the active engines' executed
// counts at segment start.
func (g *ShardGroup) countWork(active []int, counts []uint64) {
	var span uint64
	for k, i := range active {
		d := g.engines[i].executed - counts[k]
		g.stats.WorkEvents += d
		span = max(span, d)
	}
	g.stats.SpanEvents += span
}

// RunUntil drives all shards to virtual time t, synchronizing at every
// window boundary. It returns early when RequestStop was observed at a
// segment boundary, and reports whether a stop request landed (clearing
// it, so the next RunUntil runs on). Engine clocks are aligned to Now()
// on return (see align).
func (g *ShardGroup) RunUntil(t Time) bool {
	// Posts made between RunUntil calls wait in the outboxes; collect
	// them first, or the skip-ahead below would not see them.
	g.collect()
	for g.now < t && !g.halt.Load() {
		wEnd := (g.now/g.look + 1) * g.look
		if g.injected < wEnd {
			g.inject(wEnd)
			g.injected = wEnd
			g.stats.Windows++
		}
		segEnd := wEnd
		if segEnd > t {
			segEnd = t
		}
		if next, ok := g.earliest(); !ok || next > segEnd {
			// Nothing fires in this segment: skip ahead to the window
			// holding the next event (or to t) without spinning barriers
			// through dead time.
			if !ok || next > t {
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

// align brings every engine's clock up to Now(). An engine that the
// skip-ahead left in an earlier window fires its events due exactly at
// Now() here, on the barrier goroutine; they count as one more segment's
// work and span.
func (g *ShardGroup) align() {
	active, counts := g.scratch[:0], g.counts[:0]
	for i, e := range g.engines {
		if e.now < g.now {
			active = append(active, i)
			counts = append(counts, e.executed)
			e.RunUntil(g.now)
		}
	}
	g.scratch, g.counts = active[:0], counts
	g.countWork(active, counts)
}
