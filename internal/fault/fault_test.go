package fault

import (
	"encoding/json"
	"strings"
	"testing"

	"atcsched/internal/sim"
)

func win(k Kind) Window { return Window{Kind: k, StartSec: 1, DurSec: 2} }

func TestValidateAcceptsEveryKindWithDefaults(t *testing.T) {
	for _, k := range Kinds() {
		s := &Spec{Windows: []Window{win(k)}}
		if err := s.Validate(4); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		w    Window
		want string
	}{
		{"unknown kind", Window{Kind: "meteor", DurSec: 1}, "unknown kind"},
		{"negative start", Window{Kind: PCPUSlow, StartSec: -1, DurSec: 1}, "start"},
		{"zero duration", Window{Kind: PCPUSlow, StartSec: 1}, "duration"},
		{"past horizon cap", Window{Kind: PCPUSlow, StartSec: 863999, DurSec: 2}, "horizon"},
		{"vm scope on node kind", Window{Kind: PCPUSlow, DurSec: 1, VMs: []int{0}}, "VM scope"},
		{"node scope on monitor kind", Window{Kind: MonitorDrop, DurSec: 1, Nodes: []int{0}}, "node scope"},
		{"node out of range", Window{Kind: PCPUSlow, DurSec: 1, Nodes: []int{4}}, "out of range"},
		{"negative node", Window{Kind: PCPUSlow, DurSec: 1, Nodes: []int{-1}}, "out of range"},
		{"negative vm", Window{Kind: MonitorDrop, DurSec: 1, VMs: []int{-2}}, "negative VM"},
		{"slow factor below one", Window{Kind: PCPUSlow, DurSec: 1, Severity: 0.5}, "factor"},
		{"freeze with severity", Window{Kind: PCPUFreeze, DurSec: 1, Severity: 2}, "no severity"},
		{"bandwidth fraction one", Window{Kind: Bandwidth, DurSec: 1, Severity: 1}, "fraction"},
		{"loss past livelock cap", Window{Kind: PacketLoss, DurSec: 1, Severity: 0.95}, "0.9"},
		{"noise too large", Window{Kind: MonitorNoise, DurSec: 1, Severity: 2000}, "milliseconds"},
		{"probability above one", Window{Kind: MonitorDrop, DurSec: 1, Severity: 1.5}, "probability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Spec{Windows: []Window{tc.w}}
			err := s.Validate(4)
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.w)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateZeroNodesSkipsRangeCheck(t *testing.T) {
	s := &Spec{Windows: []Window{{Kind: PCPUSlow, DurSec: 1, Nodes: []int{99}}}}
	if err := s.Validate(0); err != nil {
		t.Errorf("pre-cluster validation rejected node scope: %v", err)
	}
}

func TestValidateWindowCap(t *testing.T) {
	s := &Spec{Windows: make([]Window, maxWindows+1)}
	for i := range s.Windows {
		s.Windows[i] = win(PacketLoss)
	}
	if err := s.Validate(0); err == nil {
		t.Error("Validate accepted a spec over the window cap")
	}
}

func TestCompileNilAndEmpty(t *testing.T) {
	p, err := Compile(nil, 7)
	if err != nil || p != nil {
		t.Errorf("Compile(nil) = %v, %v, want nil plan", p, err)
	}
	if !(*Spec)(nil).Empty() || !new(Spec).Empty() {
		t.Error("Empty() false for nil/zero spec")
	}
	if p.Report() != (Report{}) {
		t.Error("nil plan report not zero")
	}
	if p.FailActuation(0, 0) != nil {
		t.Error("nil plan failed an actuation")
	}
}

func TestCompileDefaultsAndDescribeDeterminism(t *testing.T) {
	spec := &Spec{Windows: []Window{
		{Kind: PCPUSlow, StartSec: 0.5, DurSec: 1, Nodes: []int{2, 0}},
		{Kind: PCPUFreeze, StartSec: 1, DurSec: 0.5},
		{Kind: PacketLoss, StartSec: 2, DurSec: 1},
		{Kind: MonitorNoise, StartSec: 0, DurSec: 3, VMs: []int{1}},
	}}
	a, err := Compile(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() != b.Describe() {
		t.Errorf("Describe not deterministic:\n%s\n%s", a.Describe(), b.Describe())
	}
	d := a.Describe()
	for _, want := range []string{
		"seed=9", "windows=4",
		"pcpu-slow", "severity=4", "nodes=[0 2]",
		"pcpu-freeze", "severity=1e+06",
		"packet-loss", "severity=0.1",
		"monitor-noise", "vms=[1]", "severity=1",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestSpecSeedOverridesFallback(t *testing.T) {
	spec := &Spec{Seed: 123, Windows: []Window{win(PacketLoss)}}
	p, err := Compile(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Describe(), "seed=123") {
		t.Errorf("spec seed not used: %s", p.Describe())
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := &Spec{Seed: 5, Windows: []Window{
		{Kind: Bandwidth, StartSec: 1.5, DurSec: 0.25, Nodes: []int{1}, Severity: 0.4},
	}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	a, _ := Compile(spec, 0)
	b, _ := Compile(&back, 0)
	if a.Describe() != b.Describe() {
		t.Errorf("JSON round trip changed the plan:\n%s\n%s", a.Describe(), b.Describe())
	}
}

func TestWindowActivation(t *testing.T) {
	w := compileWindow(Window{Kind: PCPUSlow, StartSec: 1, DurSec: 1, Nodes: []int{0}})
	sec := sim.Second
	if w.active(sec - 1) {
		t.Error("active before start")
	}
	if !w.active(sec) {
		t.Error("inactive at start")
	}
	if w.active(2 * sec) {
		t.Error("active at end (half-open interval)")
	}
	if !w.onNode(0) || w.onNode(1) {
		t.Error("node scope wrong")
	}
	all := compileWindow(Window{Kind: MonitorDrop, StartSec: 0, DurSec: 1})
	if !all.onNode(3) || !all.onVM(17) {
		t.Error("empty scope must mean all")
	}
}

func TestReportString(t *testing.T) {
	r := Report{PacketsLost: 1, SamplesDropped: 2, SamplesStaled: 3, SamplesNoised: 4, ActuationsFailed: 5}
	want := "faults: lost=1 dropped=2 staled=3 noised=4 actfail=5"
	if r.String() != want {
		t.Errorf("Report.String() = %q, want %q", r.String(), want)
	}
}

// TestProbabilisticHooksDeterministic pins that the plan's draws come
// only from its seeded stream: two plans compiled from the same (spec,
// seed) asked the same questions give identical answers and reports.
func TestProbabilisticHooksDeterministic(t *testing.T) {
	spec := &Spec{Windows: []Window{
		{Kind: PacketLoss, StartSec: 0, DurSec: 10, Severity: 0.5},
		{Kind: ActuatorFail, StartSec: 0, DurSec: 10, Severity: 0.5},
	}}
	run := func() (string, Report) {
		p, err := Compile(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 200; i++ {
			now := sim.Time(i) * sim.Millisecond
			if p.lose(0, 1, now) {
				b.WriteByte('L')
			} else {
				b.WriteByte('.')
			}
			if p.FailActuation(0, now) != nil {
				b.WriteByte('F')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String(), p.Report()
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("draw sequences diverged:\n%s\n%s\n%v vs %v", s1, s2, r1, r2)
	}
	if r1.PacketsLost == 0 || r1.ActuationsFailed == 0 {
		t.Errorf("50%% severity over 200 draws injected nothing: %v", r1)
	}
}
