package daemon

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

func ms(f float64) sim.Time { return sim.Time(f * float64(sim.Millisecond)) }

// mapActuator records the last applied slice per VM and counts
// ApplyNode calls (tests; VM IDs are cluster-unique).
type mapActuator struct {
	mu      sync.Mutex
	Last    map[int]sim.Time
	Applies uint64
}

func (m *mapActuator) ApplyNode(_ int, slices map[int]sim.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Last == nil {
		m.Last = make(map[int]sim.Time)
	}
	for id, sl := range slices {
		m.Last[id] = sl
	}
	m.Applies++
	return nil
}

// nodeFleet builds the single-machine daemon: a 1-node fleet with the
// hardened-loop defaults, adjusted by mod when non-nil.
func nodeFleet(src FleetSource, act FleetActuator, mod func(*Options)) *Fleet {
	o := DefaultOptions()
	if mod != nil {
		mod(&o)
	}
	return NewFleet(core.DefaultConfig(), src, act, FleetOptions{Node: o})
}

func TestDaemonShortensUnderRisingLatency(t *testing.T) {
	var periods [][]VMSample
	lat := sim.Time(0)
	for i := 0; i < 10; i++ {
		lat += ms(1)
		periods = append(periods, []VMSample{
			{ID: 1, AvgSpinLatency: lat, Parallel: true},
			{ID: 2, Parallel: false},
		})
	}
	act := &mapActuator{}
	d := nodeFleet(&SliceSource{Periods: periods}, act, nil)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Decisions() != 10 {
		t.Errorf("periods = %d", d.Decisions())
	}
	if got := act.Last[1]; got >= ms(30) {
		t.Errorf("parallel slice = %v, want shortened", got)
	}
	if got := act.Last[2]; got != ms(30) {
		t.Errorf("non-parallel slice = %v, want default", got)
	}
	if act.Applies != 10 {
		t.Errorf("applies = %d", act.Applies)
	}
}

func TestDaemonRespectsAdminSlice(t *testing.T) {
	src := &SliceSource{Periods: [][]VMSample{
		{{ID: 1, Parallel: false, AdminSlice: ms(6)}},
	}}
	act := &mapActuator{}
	d := nodeFleet(src, act, nil)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if act.Last[1] != ms(6) {
		t.Errorf("slice = %v, want admin 6ms", act.Last[1])
	}
}

func TestDaemonRecoversOnZeroLatency(t *testing.T) {
	var periods [][]VMSample
	for i := 0; i < 6; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: ms(float64(6 - i)), Parallel: true}})
	}
	for i := 0; i < 40; i++ {
		periods = append(periods, []VMSample{{ID: 1, AvgSpinLatency: 0, Parallel: true}})
	}
	act := &mapActuator{}
	d := nodeFleet(&SliceSource{Periods: periods}, act, nil)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if act.Last[1] != ms(30) {
		t.Errorf("slice = %v, want recovered to default", act.Last[1])
	}
}

func TestWriterActuatorFormat(t *testing.T) {
	var buf bytes.Buffer
	act := WriterActuator{W: &buf}
	if err := act.ApplyNode(0, map[int]sim.Time{2: ms(6), 1: ms(30)}); err != nil {
		t.Fatal(err)
	}
	want := "vm1 30000us\nvm2 6000us\n--\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}

func TestSliceSourceEOF(t *testing.T) {
	src := &SliceSource{Periods: [][]VMSample{{}}}
	if b, err := src.SampleFleet(); err != nil || len(b) != 1 || b[0].Node != 0 {
		t.Fatalf("first period = %v, %v; want one empty node-0 batch", b, err)
	}
	if _, err := src.SampleFleet(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

// TestNewPanicsOnNil pins that a fleet without an actuator is refused at
// construction. A nil source is allowed: such a fleet only restores and
// snapshots state, and Step errors.
func TestNewPanicsOnNil(t *testing.T) {
	f := NewFleet(core.DefaultConfig(), nil, &mapActuator{}, FleetOptions{})
	if err := f.Step(); err == nil || err == io.EOF {
		t.Errorf("Step without a source = %v, want an error", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("nil actuator accepted")
		}
	}()
	NewFleet(core.DefaultConfig(), &SliceSource{}, nil, FleetOptions{})
}

func TestDaemonEndToEndTrace(t *testing.T) {
	// A full trajectory through the WriterActuator: contention phase then
	// quiet phase; the rendered trace must show the slice walking down
	// and back up.
	var periods [][]VMSample
	for i := 0; i < 8; i++ {
		periods = append(periods, []VMSample{{ID: 7, AvgSpinLatency: ms(float64(i + 1)), Parallel: true}})
	}
	for i := 0; i < 40; i++ {
		periods = append(periods, []VMSample{{ID: 7, AvgSpinLatency: 0, Parallel: true}})
	}
	var buf bytes.Buffer
	d := nodeFleet(&SliceSource{Periods: periods}, WriterActuator{W: &buf}, nil)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.Contains(buf.String(), "vm7 24000us") {
		t.Errorf("trace missing first α step:\n%s", strings.Join(lines[:10], "\n"))
	}
	if lines[len(lines)-3] != "vm7 30000us" {
		t.Errorf("final slice line = %q, want recovery to 30ms", lines[len(lines)-3])
	}
}
