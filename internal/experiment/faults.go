package experiment

import (
	"fmt"

	"atcsched/internal/cluster"
	"atcsched/internal/fault"
	"atcsched/internal/metrics"
	"atcsched/internal/report"
	"atcsched/internal/sim"
)

// The fault timeline, in units of the 300 ms observation window: a
// healthy lead-in, a straggler window (node 0 runs 4× slow), recovery,
// a cluster-wide 20% packet-loss window, and a tail.
const (
	faultWindow     = 300 * sim.Millisecond
	faultWindows    = 16
	stragglerStart  = 1.2 // seconds
	stragglerDur    = 1.2
	lossStart       = 3.0
	lossDur         = 0.9
	stragglerFactor = 4
	lossProb        = 0.2
)

// faultPhase labels a window for the report.
func faultPhase(end sim.Time) string {
	mid := end - faultWindow/2
	sec := mid.Seconds()
	switch {
	case sec >= stragglerStart && sec < stragglerStart+stragglerDur:
		return "straggler"
	case sec >= lossStart && sec < lossStart+lossDur:
		return "pkt-loss"
	default:
		return "healthy"
	}
}

func faultSpec() *fault.Spec {
	return &fault.Spec{Windows: []fault.Window{
		{Kind: fault.PCPUSlow, StartSec: stragglerStart, DurSec: stragglerDur,
			Nodes: []int{0}, Severity: stragglerFactor},
		{Kind: fault.PacketLoss, StartSec: lossStart, DurSec: lossDur, Severity: lossProb},
	}}
}

func init() {
	register(Experiment{
		ID: "faults",
		Title: "Extension — fault injection: spin latency per window under a " +
			"straggler node and a packet-loss burst, CR vs ATC",
		Run: func(sc Scale, seed uint64) ([]*report.Table, error) {
			nodes := sc.NodeSteps[0]
			type trace struct {
				means []float64
				rep   fault.Report
			}
			run := func(kind cluster.Approach) (*trace, error) {
				cfg := cluster.DefaultConfig(nodes, kind)
				cfg.Seed = seed
				cfg.Faults = faultSpec()
				s, err := cluster.New(cfg)
				if err != nil {
					return nil, err
				}
				luTenants(s, sc)
				var watch spinWatch
				tr := &trace{}
				s.GoFor(faultWindow)
				tr.means = append(tr.means, watch.delta(s.World).Seconds())
				for w := 2; w <= faultWindows; w++ {
					s.ContinueFor(faultWindow)
					tr.means = append(tr.means, watch.delta(s.World).Seconds())
				}
				if errs := s.World.Audit(); len(errs) > 0 {
					return nil, fmt.Errorf("faults: audit under %s: %v", kind, errs[0])
				}
				tr.rep = s.FaultReport()
				return tr, nil
			}
			cr, err := run(cluster.CR)
			if err != nil {
				return nil, err
			}
			atc, err := run(cluster.ATC)
			if err != nil {
				return nil, err
			}

			t := report.New(
				"cluster-wide spin latency per 300ms window under injected faults",
				"Window", "t(end)", "Phase", "CR spin", "ATC spin")
			var crFault, atcFault, crOK, atcOK []float64
			for w := 0; w < faultWindows; w++ {
				end := sim.Time(w+1) * faultWindow
				phase := faultPhase(end)
				if phase == "healthy" {
					crOK = append(crOK, cr.means[w])
					atcOK = append(atcOK, atc.means[w])
				} else {
					crFault = append(crFault, cr.means[w])
					atcFault = append(atcFault, atc.means[w])
				}
				t.Add(fmt.Sprint(w+1), fmt.Sprintf("%v", end), phase,
					fmt.Sprintf("%.0fµs", cr.means[w]*1e6),
					fmt.Sprintf("%.0fµs", atc.means[w]*1e6))
			}
			t.AddNote("fault windows: node 0 runs %dx slow in [%.1fs, %.1fs); %.0f%% packet loss "+
				"cluster-wide in [%.1fs, %.1fs)", stragglerFactor,
				stragglerStart, stragglerStart+stragglerDur, lossProb*100, lossStart, lossStart+lossDur)
			t.AddNote("CR injections: %s; ATC injections: %s", cr.rep, atc.rep)
			cf, af := metrics.Mean(crFault), metrics.Mean(atcFault)
			if af > 0 {
				t.AddNote("spin mean inside fault windows: CR %.0fµs vs ATC %.0fµs (%.1fx); "+
					"healthy windows: CR %.0fµs vs ATC %.0fµs",
					cf*1e6, af*1e6, cf/af, metrics.Mean(crOK)*1e6, metrics.Mean(atcOK)*1e6)
			}
			return []*report.Table{t}, nil
		},
	})
}
