package vmm

import (
	"fmt"

	"atcsched/internal/cachemodel"
	"atcsched/internal/sim"
	"atcsched/internal/telemetry"
)

// PCPU is one physical core. It executes at most one VCPU at a time,
// granting it the scheduler-assigned slice, modelling context-switch cost
// and cache cooling, and handling preemption, blocking, and spin-waiting.
type PCPU struct {
	node *Node
	idx  int

	cache *cachemodel.Cache
	// clients holds this PCPU's per-VCPU cache clients, indexed by
	// VCPU.local — a dense array lookup on the dispatch path where a
	// map would hash on every context switch.
	clients []*cachemodel.Client

	cur     *VCPU
	lastRan *VCPU

	sliceEnd sim.Time
	// sliceT fires at sliceEnd while a VCPU runs.
	sliceT sim.Timer
	// stepT is the pending timed-segment completion (compute/burn done),
	// busy-poll timeout, or the deferred step kick-off after a context
	// switch. At most one is outstanding.
	stepT sim.Timer
	// stepV is the VCPU a pending segment or poll-timeout event was
	// scheduled for; segFn and pollFn read it when they fire.
	stepV *VCPU
	// dispatchQueued coalesces deferred dispatch requests.
	dispatchQueued bool
	// stepQueued coalesces deferred step requests.
	stepQueued bool

	busyTime    sim.Time
	busySince   sim.Time // valid when cur != nil
	ctxSwitches uint64
	dispatches  uint64

	// Pre-bound callbacks so the hot scheduling paths do not allocate a
	// closure per deferral.
	dispatchFn func()
	stepFn     func()
	sliceFn    func()
	csFn       func()
	segFn      func()
	pollFn     func()
}

// initFns binds the reusable event callbacks (called at construction).
func (p *PCPU) initFns() {
	p.dispatchFn = func() {
		p.dispatchQueued = false
		p.dispatch()
	}
	p.stepFn = func() {
		p.stepQueued = false
		p.step()
	}
	p.sliceFn = p.preemptCur // the slice expired
	p.csFn = p.step
	p.segFn = func() { p.onSegmentDone(p.stepV) }
	p.pollFn = func() { p.onPollTimeout(p.stepV) }
}

// Node returns the owning node.
func (p *PCPU) Node() *Node { return p.node }

// Index returns the node-local PCPU index.
func (p *PCPU) Index() int { return p.idx }

// Current returns the running VCPU (nil when idle).
func (p *PCPU) Current() *VCPU { return p.cur }

// BusyTime returns accumulated non-idle time.
func (p *PCPU) BusyTime() sim.Time {
	t := p.busyTime
	if p.cur != nil {
		t += p.node.eng.Now() - p.busySince
	}
	return t
}

// Cache returns this PCPU's LLC model.
func (p *PCPU) Cache() *cachemodel.Cache { return p.cache }

// stretch scales a segment duration by a slowdown factor, saturating
// far below the sim.Time range so freeze-grade factors cannot overflow.
func stretch(t sim.Time, f float64) sim.Time {
	if f <= 1 {
		return t
	}
	s := float64(t) * f
	const saturate = float64(1) * 1e18 // ~31 virtual years
	if s > saturate {
		return sim.Time(saturate)
	}
	return sim.Time(s)
}

// unstretch converts wall time spent in a slowed segment back into the
// work-equivalent time the cache model and burn accounting expect.
func unstretch(dt sim.Time, f float64) sim.Time {
	if f <= 1 {
		return dt
	}
	return sim.Time(float64(dt) / f)
}

func (p *PCPU) clientFor(v *VCPU) *cachemodel.Client {
	for v.local >= len(p.clients) {
		p.clients = append(p.clients, nil)
	}
	cl := p.clients[v.local]
	if cl == nil {
		cl = p.cache.NewClient(v.footprint, v.coldRate)
		p.clients[v.local] = cl
	}
	return cl
}

// scheduleDispatch defers a dispatch to the current instant, flattening
// recursion from wake/preempt chains.
func (p *PCPU) scheduleDispatch() {
	if p.dispatchQueued {
		return
	}
	p.dispatchQueued = true
	p.node.eng.Defer(p.dispatchFn)
}

// scheduleStep defers a step to the current instant.
func (p *PCPU) scheduleStep() {
	if p.stepQueued {
		return
	}
	p.stepQueued = true
	p.node.eng.Defer(p.stepFn)
}

// dispatch asks the scheduler for the next VCPU and installs it.
func (p *PCPU) dispatch() {
	if p.cur != nil {
		return // something is already running (a racing wake dispatched us)
	}
	v := p.node.sched.PickNext(p)
	if v == nil {
		return // idle
	}
	if v.state != StateRunnable {
		panic(fmt.Sprintf("vmm: PickNext returned %s in state %v", v, v.state))
	}
	now := p.node.eng.Now()
	v.waitTime += now - v.waitStart
	v.vm.countWait(now - v.waitStart)
	v.state = StateRunning
	v.pcpu = p
	v.runStart = now
	v.runSegStart = -1
	p.cur = v
	p.busySince = now
	p.dispatches++
	p.node.trace(telemetry.SchedDispatch, p.idx, v, 0)

	cs := sim.Time(0)
	if p.lastRan != v {
		cs = p.node.cfg.CtxSwitchCost
		p.ctxSwitches++
		v.vm.ctxSwitches++
	}
	p.lastRan = v

	slice := p.node.sched.Slice(v)
	if slice <= 0 {
		panic(fmt.Sprintf("vmm: scheduler %s granted non-positive slice %v", p.node.sched.Name(), slice))
	}
	v.vm.curSlice = slice
	p.sliceEnd = now + cs + slice
	p.node.eng.Arm(&p.sliceT, p.sliceEnd, p.sliceFn)

	if cs > 0 {
		p.node.eng.Arm(&p.stepT, now+cs, p.csFn)
		return
	}
	p.step()
}

// Preempt forcibly ends the current VCPU's slice (scheduler-initiated,
// e.g., co-scheduling gang dispatch or wake tickling).
func (p *PCPU) Preempt() {
	p.node.eng.Disarm(&p.sliceT)
	p.preemptCur()
}

func (p *PCPU) preemptCur() {
	v := p.cur
	if v == nil {
		p.scheduleDispatch()
		return
	}
	now := p.node.eng.Now()
	p.node.eng.Disarm(&p.stepT)
	p.accountPartial(v, now)
	if p.cur != v {
		// The interrupted action completed at this very instant and its
		// effect blocked the VCPU (e.g., a disk submit); nothing to
		// requeue.
		p.scheduleDispatch()
		return
	}
	p.node.preempts++
	p.node.trace(telemetry.SchedPreempt, p.idx, v, 0)
	p.releaseCur(v, now)
	v.state = StateRunnable
	v.waitStart = now
	p.node.sched.Enqueue(v, EnqueuePreempt)
	// The scheduler may have re-placed v on another PCPU's queue (balance
	// placement); without runqueue stealing an idle PCPU never looks
	// there on its own, so nudge every idle sibling. scheduleDispatch
	// coalesces, and a dispatch from an empty queue is O(1).
	for _, o := range p.node.pcpus {
		if o != p && o.cur == nil {
			o.scheduleDispatch()
		}
	}
	p.scheduleDispatch()
}

// releaseCur detaches v from the PCPU and settles accounting.
func (p *PCPU) releaseCur(v *VCPU, now sim.Time) {
	v.runTime += now - v.runStart
	v.pcpu = nil
	p.cur = nil
	p.busyTime += now - p.busySince
	p.node.eng.Disarm(&p.sliceT)
}

// accountPartial credits progress for an interrupted timed segment.
func (p *PCPU) accountPartial(v *VCPU, now sim.Time) {
	if v.runSegStart < 0 || v.pending == nil {
		v.runSegStart = -1
		return
	}
	dt := now - v.runSegStart
	v.runSegStart = -1
	if dt <= 0 {
		return
	}
	a := v.pending
	// Wall time in a slowed segment counts for less work.
	dt = unstretch(dt, v.segSlow)
	if dt <= 0 {
		return
	}
	switch a.Kind {
	case ActCompute:
		work := p.cache.Advance(p.clientFor(v), dt)
		a.Work -= work
		if a.Work <= 0 {
			p.completeAction(v, a)
		}
	default:
		// A fixed-cost burn (send/recv/disk submit).
		v.burnRemaining -= dt
		if v.burnRemaining <= 0 {
			v.burnRemaining = 0
			p.applyEffect(v, a)
		}
	}
}

// completeAction retires a finished action and runs its Then hook.
func (p *PCPU) completeAction(v *VCPU, a *Action) {
	v.pending = nil
	v.burnRemaining = -1
	if a.Then != nil {
		a.Then()
	}
}

// blockCur blocks the current VCPU (waiting on I/O, a message, a timer,
// or — for ActDone with no restart — forever).
func (p *PCPU) blockCur(v *VCPU, st VCPUState) {
	if p.cur != v {
		panic(fmt.Sprintf("vmm: blockCur for %s which is not current", v))
	}
	now := p.node.eng.Now()
	p.node.eng.Disarm(&p.stepT)
	if v.runSegStart >= 0 {
		panic(fmt.Sprintf("vmm: %s blocking mid-segment", v))
	}
	p.node.blocks++
	p.node.trace(telemetry.SchedBlock, p.idx, v, 0)
	p.releaseCur(v, now)
	v.state = st
	p.scheduleDispatch()
}

// still reports whether v is still the running VCPU on p — used to bail
// out of the step loop after side effects that may have preempted us.
func (p *PCPU) still(v *VCPU) bool {
	return p.cur == v && v.state == StateRunning
}

// step executes the current VCPU's actions until one of them requires
// waiting (for time, a lock, a message, ...) or the VCPU loses the PCPU.
func (p *PCPU) step() {
	v := p.cur
	if v == nil || v.state != StateRunning {
		return
	}
	if v.runSegStart >= 0 || p.stepT.Armed() {
		// A timed segment is already in flight (its completion event or
		// the slice end will continue); a stale deferred step must not
		// restart it.
		return
	}
	eng := p.node.eng
	for iter := 0; ; iter++ {
		if iter > p.node.cfg.MaxInlineSteps {
			panic(fmt.Sprintf("vmm: %s exceeded %d inline steps at %v — runaway zero-cost process?",
				v, p.node.cfg.MaxInlineSteps, eng.Now()))
		}
		if !p.still(v) {
			return
		}
		if v.pending == nil {
			if v.proc == nil {
				p.blockCur(v, StateIdle)
				return
			}
			v.pendingBuf = v.proc.Next()
			v.pending = &v.pendingBuf
			v.burnRemaining = -1
		}
		a := v.pending
		now := eng.Now()
		switch a.Kind {
		case ActCompute:
			if a.Work <= 0 {
				p.completeAction(v, a)
				continue
			}
			cl := p.clientFor(v)
			v.segSlow = p.node.slowFactor(now)
			t := stretch(p.cache.TimeFor(cl, a.Work), v.segSlow)
			v.runSegStart = now
			if now+t <= p.sliceEnd {
				p.stepV = v
				eng.Arm(&p.stepT, now+t, p.segFn)
			}
			// Otherwise the slice ends first; preemption accounts the
			// partial progress.
			return

		case ActAcquire:
			if v.spinningOn == a.Lock {
				// Already a waiter (re-dispatched mid-spin). Complete if
				// the lock was reserved for us; otherwise keep spinning.
				if a.Lock.granted == v {
					if !a.Lock.tryAcquire(v, now) {
						panic("vmm: granted lock refused acquisition")
					}
					p.completeAction(v, a)
					continue
				}
				return // burn the slice spinning
			}
			v.spinSince = now
			if a.Lock.tryAcquire(v, now) {
				p.completeAction(v, a)
				continue
			}
			v.spinningOn = a.Lock
			return // spin until granted or preempted

		case ActRelease:
			lock := a.Lock
			p.completeAction(v, a)
			lock.release(v, now)
			continue

		case ActSend:
			if !p.startBurn(v, a, p.node.cfg.SendCPUCost) {
				return
			}
			p.applyEffect(v, a)
			continue

		case ActRecv:
			if !v.vm.mailReady(v.idx, a.Tag) {
				v.vm.waitMail(v.idx, a.Tag, v)
				if a.Dur == 0 {
					p.blockCur(v, StateBlocked)
					return
				}
				// Busy-poll the mailbox: burn CPU until the packet lands
				// (the deliver path resumes us), the poll budget runs out
				// (then block), or the slice ends. A budget the current
				// slice cannot hold (the slice-end event wins a same-instant
				// tie, hence the strict <) is pre-charged for the slice
				// remainder: polling resumes with the rest on redispatch,
				// and a spent budget (Dur reaching 0) degrades to the
				// blocking branch above. Without the carry-over, any budget
				// at or above the slice restarts from scratch every dispatch
				// and the VCPU never blocks — under a scheduler that keeps
				// it promoted, that starves dom0 and deadlocks delivery.
				if rem := p.sliceEnd - now; a.Dur > 0 && a.Dur < rem {
					p.stepV = v
					eng.Arm(&p.stepT, now+a.Dur, p.pollFn)
				} else if a.Dur > 0 && rem > 0 {
					a.Dur -= rem
				}
				return
			}
			if !p.startBurn(v, a, p.node.cfg.RecvCPUCost) {
				return
			}
			p.applyEffect(v, a)
			continue

		case ActDisk:
			if !p.startBurn(v, a, p.node.cfg.IOSubmitCost) {
				return
			}
			p.applyEffect(v, a)
			// applyEffect blocked the VCPU waiting for completion.
			return

		case ActSleep:
			then := a.Then
			d := a.Dur
			v.pending = nil
			v.burnRemaining = -1
			eng.Schedule(d, func() {
				if then != nil {
					then()
				}
				p.node.wake(v, false)
			})
			p.blockCur(v, StateBlocked)
			return

		case ActBlock:
			if a.Then != nil {
				panic("vmm: ActBlock does not support Then")
			}
			v.pending = nil
			v.burnRemaining = -1
			p.blockCur(v, StateBlocked)
			return

		case ActDone:
			v.rounds++
			v.pending = nil
			v.burnRemaining = -1
			if v.OnDone != nil {
				if np := v.OnDone(v); np != nil {
					v.proc = np
					continue
				}
			}
			v.proc = nil
			p.blockCur(v, StateIdle)
			return

		default:
			panic(fmt.Sprintf("vmm: unknown action kind %v", a.Kind))
		}
	}
}

// onSegmentDone fires when a timed compute segment completes in full.
func (p *PCPU) onSegmentDone(v *VCPU) {
	if !p.still(v) {
		return
	}
	now := p.node.eng.Now()
	a := v.pending
	if a == nil || v.runSegStart < 0 {
		panic(fmt.Sprintf("vmm: segment completion without segment on %s", v))
	}
	dt := now - v.runSegStart
	v.runSegStart = -1
	switch a.Kind {
	case ActCompute:
		// The timer fired at exactly TimeFor(remaining work), so the
		// segment is complete by construction; Advance only settles the
		// cache-residency state (its float work accounting can drift a
		// few microseconds on long cold segments, which we discard).
		p.cache.Advance(p.clientFor(v), unstretch(dt, v.segSlow))
		a.Work = 0
		p.completeAction(v, a)
	default:
		v.burnRemaining = 0
		p.applyEffect(v, a)
	}
	p.step()
}

// onPollTimeout fires when a busy-polling receive exhausts its budget:
// the VCPU gives up the CPU and blocks until the packet arrives.
func (p *PCPU) onPollTimeout(v *VCPU) {
	if !p.still(v) {
		return
	}
	a := v.pending
	if a == nil || a.Kind != ActRecv {
		return // the recv completed at this very instant
	}
	if v.vm.mailReady(v.idx, a.Tag) {
		p.scheduleStep()
		return
	}
	p.blockCur(v, StateBlocked)
}

// resumePoll is called by the deliver path when a packet lands for a
// VCPU that is busy-polling on this PCPU right now.
func (p *PCPU) resumePoll(v *VCPU) {
	if !p.still(v) {
		return
	}
	p.node.eng.Disarm(&p.stepT)
	p.scheduleStep()
}

// startBurn begins (or finishes) the fixed CPU cost of a non-compute
// action. It returns true when the burn is already complete and the
// action's effect should be applied now.
func (p *PCPU) startBurn(v *VCPU, a *Action, cost sim.Time) bool {
	if v.burnRemaining < 0 {
		v.burnRemaining = cost
	}
	if v.burnRemaining == 0 {
		return true
	}
	now := p.node.eng.Now()
	v.segSlow = p.node.slowFactor(now)
	v.runSegStart = now
	if wall := stretch(v.burnRemaining, v.segSlow); now+wall <= p.sliceEnd {
		p.stepV = v
		p.node.eng.Arm(&p.stepT, now+wall, p.segFn)
	}
	return false
}

// applyEffect performs a non-compute action's side effect once its CPU
// cost has been paid.
func (p *PCPU) applyEffect(v *VCPU, a *Action) {
	switch a.Kind {
	case ActSend:
		pkt := Packet{Src: v.vm, SrcProc: v.idx, Dst: a.Dst, DstProc: a.DstProc, Tag: a.Tag, Size: a.Size}
		v.vm.sent++
		p.node.backend.enqueueTx(pkt)
		p.completeAction(v, a)
	case ActRecv:
		v.vm.takeMail(v.idx, a.Tag)
		p.completeAction(v, a)
	case ActDisk:
		req := diskReq{v: v, size: a.Size, then: a.Then}
		v.pending = nil
		v.burnRemaining = -1
		p.node.backend.enqueueDisk(req)
		if p.cur == v && v.state == StateRunning {
			p.blockCur(v, StateBlocked)
		}
	default:
		panic(fmt.Sprintf("vmm: applyEffect on %v", a.Kind))
	}
}
