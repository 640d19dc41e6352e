package daemon

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// refNodeLoop is the map-based nodeLoop the per-node VM table replaced,
// kept as the oracle: one map per kind of VM state plus an ID-keyed
// core.Controller. hist records the VMs the controller holds a window
// for, with their observed-period counts.
type refNodeLoop struct {
	ctl  *core.Controller
	opts Options
	last map[int]sim.Time

	lastSeq     map[int]uint64
	staleRuns   map[int]int
	known       map[int]refMeta
	hist        map[int]int
	consecDrops int

	periods uint64
	stats   Stats
}

// refMeta is the classification the reference remembers per VM.
type refMeta struct {
	parallel bool
	admin    sim.Time
}

func newRefNodeLoop(cfg core.Config, opts Options) *refNodeLoop {
	return &refNodeLoop{
		ctl:       core.NewController(cfg),
		opts:      opts,
		last:      make(map[int]sim.Time),
		lastSeq:   make(map[int]uint64),
		staleRuns: make(map[int]int),
		known:     make(map[int]refMeta),
		hist:      make(map[int]int),
	}
}

func (l *refNodeLoop) decide(samples []VMSample) map[int]sim.Time {
	seen := make(map[int]bool, len(samples))
	infos := make([]core.VMInfo, 0, len(samples))
	for _, s := range samples {
		seen[s.ID] = true
		if _, ok := l.known[s.ID]; !ok {
			l.known[s.ID] = refMeta{parallel: s.Parallel, admin: s.AdminSlice}
		}
		if s.Seq != 0 && s.Seq <= l.lastSeq[s.ID] {
			l.stats.StaleSamples++
			l.staleRuns[s.ID]++
			continue
		}
		if s.Seq != 0 {
			l.lastSeq[s.ID] = s.Seq
		}
		l.staleRuns[s.ID] = 0
		l.known[s.ID] = refMeta{parallel: s.Parallel, admin: s.AdminSlice}
		inForce, ok := l.last[s.ID]
		if !ok {
			inForce = l.ctl.Config().Default
		}
		l.ctl.Observe(s.ID, s.AvgSpinLatency, inForce)
		l.hist[s.ID]++
		infos = append(infos, core.VMInfo{ID: s.ID, Parallel: s.Parallel, AdminSlice: s.AdminSlice})
	}
	for id := range l.known {
		if !seen[id] {
			l.staleRuns[id]++
		}
	}
	slices := l.ctl.NodeSlices(infos)
	l.degradeBlackedOut(slices)
	return slices
}

func (l *refNodeLoop) commit(slices map[int]sim.Time) {
	for id, sl := range slices {
		l.last[id] = sl
	}
	l.periods++
}

func (l *refNodeLoop) degradeBlackedOut(slices map[int]sim.Time) {
	def := l.ctl.Config().Default
	step := l.ctl.Config().Alpha
	for id, runs := range l.staleRuns {
		if runs == 0 {
			continue
		}
		cur, ok := l.last[id]
		if !ok {
			cur = def
		}
		meta := l.known[id]
		switch {
		case runs < l.opts.StaleAfter:
			slices[id] = cur
		case !meta.parallel:
			if meta.admin > 0 {
				slices[id] = meta.admin
			} else {
				slices[id] = def
			}
		default:
			next := cur
			switch {
			case cur < def:
				next = min(cur+step, def)
			case cur > def:
				next = max(cur-step, def)
			}
			if next != cur {
				l.stats.Degraded++
			}
			slices[id] = next
		}
	}
}

func (l *refNodeLoop) applyWithRetry(slices map[int]sim.Time, apply func(map[int]sim.Time) error) (bool, error) {
	var err error
	for attempt := 0; ; attempt++ {
		if err = apply(slices); err == nil {
			l.consecDrops = 0
			return true, nil
		}
		if attempt >= l.opts.MaxRetries {
			break
		}
		l.stats.Retries++
	}
	l.stats.DroppedPeriods++
	l.consecDrops++
	if l.consecDrops >= l.opts.GiveUpAfter {
		return false, fmt.Errorf("daemon: giving up after %d consecutive dropped periods (%d attempts each): %w",
			l.consecDrops, l.opts.MaxRetries+1, err)
	}
	return false, nil
}

// snapshot lists every VM ID any map holds, sorted.
func (l *refNodeLoop) snapshot(node int) NodeSnapshot {
	ids := slices.Collect(maps.Keys(l.last))
	ids = slices.AppendSeq(ids, maps.Keys(l.staleRuns))
	ids = slices.AppendSeq(ids, maps.Keys(l.hist))
	ids = slices.AppendSeq(ids, maps.Keys(l.lastSeq))
	ids = slices.AppendSeq(ids, maps.Keys(l.known))
	slices.Sort(ids)
	ids = slices.Compact(ids)
	ns := NodeSnapshot{Node: node, Periods: l.periods, ConsecDrops: l.consecDrops, Stats: l.stats}
	for _, vid := range ids {
		vs := VMSnapshot{ID: vid, Seq: l.lastSeq[vid], StaleRuns: l.staleRuns[vid]}
		if meta, ok := l.known[vid]; ok {
			vs.Known, vs.Parallel, vs.Admin = true, meta.parallel, meta.admin
		}
		if last, ok := l.last[vid]; ok {
			vs.HasLast, vs.Last = true, last
		}
		if obs, ok := l.hist[vid]; ok {
			vs.Lat, vs.Slice = l.ctl.History(vid)
			vs.Observed = obs
		}
		ns.VMs = append(ns.VMs, vs)
	}
	return ns
}

// restoreRefNodeLoop loads a node entry the way Restore did before the
// VM table: each field lands in its own map, and a history window is
// validated and then replayed into the controller.
func restoreRefNodeLoop(cfg core.Config, opts Options, ns *NodeSnapshot) (*refNodeLoop, error) {
	l := newRefNodeLoop(cfg, opts)
	l.periods, l.consecDrops, l.stats = ns.Periods, ns.ConsecDrops, ns.Stats
	for _, vs := range ns.VMs {
		if vs.Known {
			l.known[vs.ID] = refMeta{parallel: vs.Parallel, admin: vs.Admin}
		}
		if vs.HasLast {
			l.last[vs.ID] = vs.Last
		}
		if vs.Seq != 0 {
			l.lastSeq[vs.ID] = vs.Seq
		}
		if vs.StaleRuns != 0 {
			l.staleRuns[vs.ID] = vs.StaleRuns
		}
		if len(vs.Lat) == 0 && len(vs.Slice) == 0 {
			continue
		}
		w := cfg.Window
		if len(vs.Lat) != w || len(vs.Slice) != w || vs.Observed < 0 {
			return nil, fmt.Errorf("vm %d: bad window", vs.ID)
		}
		for i := 0; i < w; i++ {
			if vs.Lat[i] < 0 || vs.Slice[i] <= 0 {
				return nil, fmt.Errorf("vm %d: bad window entry %d", vs.ID, i)
			}
		}
		l.ctl.Forget(vs.ID)
		for i := 0; i < w; i++ {
			l.ctl.Observe(vs.ID, vs.Lat[i], vs.Slice[i])
		}
		l.hist[vs.ID] = vs.Observed
	}
	return l, nil
}

// byteStream hands out a fuzz input one byte at a time, then zeros.
type byteStream struct {
	data []byte
	i    int
}

func (b *byteStream) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return int(b.data[b.i-1])
}

func (b *byteStream) done() bool { return b.i >= len(b.data) }

// encodeNode renders one node entry as snapshot bytes.
func encodeNode(t testing.TB, cfg core.Config, ns NodeSnapshot) []byte {
	t.Helper()
	enc, err := (&FleetSnapshot{Version: SnapshotVersion, Config: cfg, Nodes: []NodeSnapshot{ns}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// craft strips and duplicates snapshot entries as in a hand-edited or
// partial checkpoint: fields vanish one by one (leaving entries with
// stale counts but no classification, or no state at all), an entry may
// repeat with only some of its fields, and the list may come reversed.
func craft(in *byteStream, ns *NodeSnapshot) {
	vms := slices.Clone(ns.VMs)
	for i := range vms {
		v := &vms[i]
		bits := in.next()
		if bits&1 != 0 {
			v.Known, v.Parallel, v.Admin = false, false, 0
		}
		if bits&2 != 0 {
			v.HasLast, v.Last = false, 0
		}
		if bits&4 != 0 {
			v.Seq = 0
		}
		if bits&8 != 0 {
			v.StaleRuns = 0
		}
		if bits&16 != 0 {
			v.Lat, v.Slice, v.Observed = nil, nil, 0
		}
		if bits&32 != 0 {
			dup := ns.VMs[i]
			dup.Known = false
			vms = append(vms, dup)
		}
	}
	if in.next()&1 != 0 {
		slices.Reverse(vms)
	}
	ns.VMs = vms
}

// runNodeLoopDiff drives the VM-table nodeLoop and the map-based
// reference through one byte-coded stream of periods — stale and
// repeated Seq, dropouts, duplicate IDs in a batch, parallel/admin
// flips, failed actuations, and plain or crafted snapshot → restore —
// and fails at the first period whose decisions, Stats or encoded
// snapshot differ.
func runNodeLoopDiff(t testing.TB, data []byte) {
	in := &byteStream{data: data}
	cfg := core.DefaultConfig()
	cfg.Window = 2 + in.next()%3
	opts := Options{
		MaxRetries:  in.next() % 3,
		GiveUpAfter: 1 + in.next()%4,
		StaleAfter:  1 + in.next()%3,
	}
	got, want := newNodeLoop(cfg, opts), newRefNodeLoop(cfg, opts)
	lats := []sim.Time{0, 0, 100 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond,
		3 * sim.Millisecond, 5 * sim.Millisecond, 30 * sim.Millisecond}
	admins := []sim.Time{0, 0, 3 * sim.Millisecond, 12 * sim.Millisecond}
	seqs := map[int]uint64{}
	for period := 0; !in.done() && period < 400; period++ {
		switch op := in.next() % 8; op {
		case 6, 7:
			snap := got.snapshot(0, new(snapArena))
			if op == 7 {
				craft(in, &snap)
			}
			var err, refErr error
			if got, err = restoreNodeLoop(cfg, opts, &snap); err != nil {
				t.Fatalf("period %d: restore: %v", period, err)
			}
			if want, refErr = restoreRefNodeLoop(cfg, opts, &snap); refErr != nil {
				t.Fatalf("period %d: reference restore: %v", period, refErr)
			}
		default:
			var batch []VMSample
			for n := in.next() % 7; n > 0; n-- {
				s := VMSample{
					ID:             in.next() % 6,
					AvgSpinLatency: lats[in.next()%len(lats)],
					Parallel:       in.next()%3 != 0,
					AdminSlice:     admins[in.next()%len(admins)],
				}
				switch in.next() % 4 {
				case 1:
					seqs[s.ID]++
					s.Seq = seqs[s.ID]
				case 2:
					s.Seq = seqs[s.ID]
				case 3:
					s.Seq = seqs[s.ID] / 2
				}
				batch = append(batch, s)
			}
			gotDec, wantDec := got.ctl.Decide(batch, false), want.decide(batch)
			if !maps.Equal(gotDec, wantDec) {
				t.Fatalf("period %d: batch %+v: decisions %v, reference %v", period, batch, gotDec, wantDec)
			}
			failures := in.next() % 5
			failing := func(n *int) func(map[int]sim.Time) error {
				return func(map[int]sim.Time) error {
					if *n < failures {
						*n++
						return fmt.Errorf("actuation %d refused", *n)
					}
					return nil
				}
			}
			var a, b int
			ok, err := got.applyWithRetry(gotDec, failing(&a), nil)
			refOK, refErr := want.applyWithRetry(wantDec, failing(&b))
			if ok != refOK || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("period %d: apply = %v, %v; reference %v, %v", period, ok, err, refOK, refErr)
			}
			if ok {
				got.commit()
				want.commit(wantDec)
			}
		}
		if got.stats() != want.stats {
			t.Fatalf("period %d: stats %+v, reference %+v", period, got.stats(), want.stats)
		}
		if g, w := encodeNode(t, cfg, got.snapshot(0, new(snapArena))), encodeNode(t, cfg, want.snapshot(0)); !bytes.Equal(g, w) {
			t.Fatalf("period %d: snapshot\n%s\nreference\n%s", period, g, w)
		}
	}
}

// TestNodeLoopMatchesReference runs the differential check over seeded
// random streams.
func TestNodeLoopMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runNodeLoopDiff(t, data)
	}
}

// FuzzNodeLoop is the differential check over fuzzed streams.
func FuzzNodeLoop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 1, 0, 3, 1, 3, 1, 0, 1, 2, 5, 1, 0, 1, 7, 255, 1})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runNodeLoopDiff(t, data) })
}

// steadySource replays the same batches every period, each VM's sample
// fresh (its Seq advances) and its latency cycling, without allocating.
type steadySource struct {
	batches []NodeBatch
	period  int
}

func newSteadySource(nodes, vms int) *steadySource {
	s := &steadySource{batches: make([]NodeBatch, nodes)}
	for n := range s.batches {
		smp := make([]VMSample, vms)
		for v := range smp {
			smp[v] = VMSample{ID: n*vms + v, Parallel: v%4 != 3}
		}
		s.batches[n] = NodeBatch{Node: n, Samples: smp}
	}
	return s
}

func (s *steadySource) SampleFleet() ([]NodeBatch, error) {
	s.period++
	for _, b := range s.batches {
		for v := range b.Samples {
			smp := &b.Samples[v]
			smp.Seq = uint64(s.period)
			smp.AvgSpinLatency = sim.Time((s.period+v)%5) * 100 * sim.Microsecond
		}
	}
	return s.batches, nil
}

type nopFleetActuator struct{}

func (nopFleetActuator) ApplyNode(int, map[int]sim.Time) error { return nil }

// TestNodeLoopSteadyStateAllocs pins that once a fleet has seen its VMs,
// a control period — decide, actuate and commit on every node —
// allocates nothing.
func TestNodeLoopSteadyStateAllocs(t *testing.T) {
	const nodes = 8
	f := NewFleet(core.DefaultConfig(), newSteadySource(nodes, 6), nopFleetActuator{}, FleetOptions{})
	defer f.Close()
	step := func() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("%v allocations per period over %d nodes, want 0", got, nodes)
	}
}

// BenchmarkNodeLoopPeriod times one node's control period — decide,
// apply, commit — in steady state, per VM decision.
func BenchmarkNodeLoopPeriod(b *testing.B) {
	for _, vms := range []int{4, 64} {
		b.Run(fmt.Sprintf("vms=%d", vms), func(b *testing.B) {
			src := newSteadySource(1, vms)
			l := newNodeLoop(core.DefaultConfig(), DefaultOptions())
			apply := func(map[int]sim.Time) error { return nil }
			period := func() {
				batches, _ := src.SampleFleet()
				slices := l.ctl.Decide(batches[0].Samples, false)
				if ok, err := l.applyWithRetry(slices, apply, nil); !ok || err != nil {
					b.Fatal(ok, err)
				}
				l.commit()
			}
			period() // fill the VM table
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				period()
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*vms), "ns/VM-decision")
		})
	}
}
