package daemon

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// gatedActuator blocks node's ApplyNode until release is closed,
// closing entered once it is blocked, so it serves one Step. Every other
// node's call returns at once.
type gatedActuator struct {
	node             int
	entered, release chan struct{}
}

func (a *gatedActuator) ApplyNode(node int, _ map[int]sim.Time) error {
	if node == a.node {
		close(a.entered)
		<-a.release
	}
	return nil
}

// TestFleetReadersNeverWaitOnActuator pins the locking rule: a worker
// releases its mutex around ApplyNode, so while one node's actuation is
// stuck, every reader returns from another goroutine.
func TestFleetReadersNeverWaitOnActuator(t *testing.T) {
	var batches []NodeBatch
	for n := 0; n < 4; n++ {
		batches = append(batches, parallelBatch(n, ms(float64(n+1))))
	}
	// Node 1 is on worker 0 of 2, which drives rows 0 and 1.
	act := &gatedActuator{node: 1, entered: make(chan struct{}), release: make(chan struct{})}
	f := NewFleet(core.DefaultConfig(), &scriptSource{periods: [][]NodeBatch{batches}}, act, FleetOptions{Shards: 2})
	stepped := make(chan error, 1)
	go func() { stepped <- f.Step() }()
	select {
	case <-act.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("node 1 was never actuated")
	}

	read := make(chan string, 1)
	go func() {
		tab, sum, st := f.Table(), f.Summary(), f.Stats()
		nodes, last, snap := f.Nodes(), f.LastSlices(1), f.Snapshot()
		read <- fmt.Sprintf("table=%d summary=%d retries=%d nodes=%v last=%v snapshot=%d",
			len(tab), sum.Nodes, st.Retries, nodes, last, len(snap.Nodes))
	}()
	select {
	case got := <-read:
		if want := "table=4 summary=4 retries=0 nodes=[0 1 2 3] last=map[] snapshot=4"; got != want {
			t.Errorf("readers mid-actuation: %s, want %s", got, want)
		}
	case <-time.After(10 * time.Second):
		close(act.release)
		t.Fatal("readers waited on a blocked ApplyNode")
	}
	select {
	case err := <-stepped:
		t.Fatalf("Step returned (%v) while node 1's actuation was blocked", err)
	default:
	}
	close(act.release)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if got := f.Decisions(); got != 4 {
		t.Errorf("decisions = %d, want 4", got)
	}
}

// orderActuator logs every ApplyNode as "n<node>#<attempt>", counting
// attempts per node across periods, and fails each node's first
// failFirst[node] attempts. When hold is set, node 0's first attempt
// waits until hold is closed, which node hold's first attempt does.
type orderActuator struct {
	failFirst map[int]int
	holdFor   int
	hold      chan struct{}

	mu    sync.Mutex
	calls map[int]int
	log   []string
}

func (a *orderActuator) ApplyNode(node int, _ map[int]sim.Time) error {
	a.mu.Lock()
	if a.calls == nil {
		a.calls = make(map[int]int)
	}
	a.calls[node]++
	attempt := a.calls[node]
	a.log = append(a.log, fmt.Sprintf("n%d#%d", node, attempt))
	a.mu.Unlock()
	if a.hold != nil && attempt == 1 {
		switch node {
		case 0:
			select {
			case <-a.hold:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("node %d never actuated alongside node 0", a.holdFor)
			}
		case a.holdFor:
			close(a.hold)
		}
	}
	if attempt <= a.failFirst[node] {
		return errActuator
	}
	return nil
}

// TestFleetActuationOrder pins the order of actuations and retries. One
// worker actuates its nodes in batch (ID) order, and a node's retries
// follow its first attempt before the next node's turn; a period whose
// attempts all fail is dropped and the next period starts over. At two
// workers, each worker makes the same calls for its contiguous half of
// the table, concurrently with the other.
func TestFleetActuationOrder(t *testing.T) {
	const nodes = 6
	var batches []NodeBatch
	for n := 0; n < nodes; n++ {
		batches = append(batches, parallelBatch(n, ms(float64(n+1))))
	}
	run := func(shards int, hold bool) *orderActuator {
		o := DefaultOptions()
		o.Sleep = noSleep
		// Node 1 lands on its third attempt, node 4 on its second; node 5
		// fails all MaxRetries+1 attempts of the first period.
		act := &orderActuator{failFirst: map[int]int{1: 2, 4: 1, 5: 4}}
		if hold {
			act.holdFor, act.hold = nodes/2, make(chan struct{})
		}
		src := &scriptSource{periods: [][]NodeBatch{batches, batches}}
		f := NewFleet(core.DefaultConfig(), src, act, FleetOptions{Node: o, Shards: shards})
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if st := f.Stats(); st.Retries != 2+1+3 || st.DroppedPeriods != 1 {
			t.Errorf("shards=%d: stats %+v, want 6 retries and 1 dropped period", shards, st)
		}
		return act
	}

	want := []string{
		"n0#1", "n1#1", "n1#2", "n1#3", "n2#1", "n3#1", "n4#1", "n4#2", "n5#1", "n5#2", "n5#3", "n5#4",
		"n0#2", "n1#4", "n2#2", "n3#2", "n4#3", "n5#5",
	}
	if got := run(1, false).log; !slices.Equal(got, want) {
		t.Errorf("one worker's calls:\n%s\nwant:\n%s", strings.Join(got, " "), strings.Join(want, " "))
	}

	// Node 0's first call waits for node 3's, so the halves must be on
	// different goroutines.
	got := run(2, true).log
	for w, lo := range []int{0, nodes / 2} {
		in := func(call string) bool {
			var n int
			fmt.Sscanf(call, "n%d", &n)
			return n >= lo && n < lo+nodes/2
		}
		mine := slices.DeleteFunc(slices.Clone(got), func(c string) bool { return !in(c) })
		ref := slices.DeleteFunc(slices.Clone(want), func(c string) bool { return !in(c) })
		if !slices.Equal(mine, ref) {
			t.Errorf("worker %d's calls: %s, want %s", w, strings.Join(mine, " "), strings.Join(ref, " "))
		}
	}
}

// TestFleetRestoreCraftedNodeLists restores checkpoints as outside input
// can shape them: node entries out of ID order, a node named twice (the
// later entry wins) and nodes outside MaxNodes. The fleet must hold
// exactly the state of the sorted, de-duplicated snapshot.
func TestFleetRestoreCraftedNodeLists(t *testing.T) {
	const nodes = 6
	var periods [][]NodeBatch
	for p := 0; p < 4; p++ {
		var batches []NodeBatch
		for n := 0; n < nodes; n++ {
			batches = append(batches, parallelBatch(n, ms(float64(1+(n*7+p*3)%5))))
		}
		periods = append(periods, batches)
	}
	ref := NewFleet(core.DefaultConfig(), &scriptSource{periods: periods}, &mapActuator{}, FleetOptions{Shards: 2})
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot()
	wantEnc, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}

	entry := func(node, from int) NodeSnapshot {
		ns := want.Nodes[from]
		ns.Node = node
		return ns
	}
	shuffled := slices.Clone(want.Nodes)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	crafted := *want
	// Decoys for nodes 3 and 4 carrying nodes 0's and 5's state come
	// before the true entries, and the strays sit between them.
	crafted.Nodes = []NodeSnapshot{entry(3, 0), entry(nodes, 1), entry(4, 5)}
	crafted.Nodes = append(crafted.Nodes, shuffled[:3]...)
	crafted.Nodes = append(crafted.Nodes, entry(-1, 2))
	crafted.Nodes = append(crafted.Nodes, shuffled[3:]...)

	for _, shards := range []int{1, 2, 3} {
		f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{Shards: shards, MaxNodes: nodes})
		if err := f.Restore(&crafted); err != nil {
			t.Fatal(err)
		}
		if got := f.SkippedRestoreNodes(); got != 2 {
			t.Errorf("shards=%d: skipped %d entries, want the 2 outside MaxNodes", shards, got)
		}
		if !slices.Equal(f.Nodes(), ref.Nodes()) {
			t.Errorf("shards=%d: nodes %v, want %v", shards, f.Nodes(), ref.Nodes())
		}
		for node := -1; node <= nodes; node++ {
			if got, want := f.LastSlices(node), ref.LastSlices(node); !maps.Equal(got, want) || (got == nil) != (want == nil) {
				t.Errorf("shards=%d: LastSlices(%d) = %v, want %v", shards, node, got, want)
			}
		}
		got, err := f.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantEnc) {
			t.Errorf("shards=%d: restored checkpoint differs from the sorted, de-duplicated one:\n%s\nwant:\n%s",
				shards, viewOf(t, got), viewOf(t, wantEnc))
		}
	}
}
