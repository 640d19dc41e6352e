package experiment

import (
	"fmt"
	"math"
	"strconv"

	"atcsched/internal/cluster"
	"atcsched/internal/core"
	"atcsched/internal/metrics"
	"atcsched/internal/paperdata"
	"atcsched/internal/report"
	"atcsched/internal/runner"
	"atcsched/internal/sim"
	"atcsched/internal/validate"
	"atcsched/internal/workload"
)

func init() {
	register(Experiment{
		ID: "score",
		Title: "Reproduction scorecard — measured results checked against every " +
			"number the paper states in its text",
		Run: runScore,
	})
}

// runScore executes the key measurements and validates them against
// internal/paperdata.
func runScore(sc Scale, seed uint64) ([]*report.Table, error) {
	var card validate.Scorecard

	// --- Figure 10 ordering and gain band (lu at the largest step).
	nodes := sc.NodeSteps[len(sc.NodeSteps)-1]
	measured := map[string]float64{"CR": 1}
	approaches := []cluster.Approach{cluster.CR, cluster.BS, cluster.CS, cluster.DSS, cluster.ATC}
	execs, err := runner.Map(len(approaches), func(i int) (float64, error) {
		return typeAExec(sc, approaches[i], "lu", nodes, seed)
	})
	if err != nil {
		return nil, err
	}
	cr := execs[0]
	for i, a := range approaches[1:] {
		measured[string(a)] = execs[i+1] / cr
	}
	paperRank := map[string]float64{}
	for i, name := range paperdata.Fig10.Ordering {
		paperRank[name] = float64(i + 1)
	}
	rho, err := validate.SpearmanRank(paperRank, measured)
	if err != nil {
		return nil, err
	}
	card.Add("fig10 lu approach ordering",
		fmt.Sprintf("ATC < CS < DSS < BS <= CR"),
		fmt.Sprintf("Spearman ρ = %.2f (BS=%.2f CS=%.2f DSS=%.2f ATC=%.2f)",
			rho, measured["BS"], measured["CS"], measured["DSS"], measured["ATC"]),
		rho >= 0.6)

	gain := 1 / measured["ATC"]
	card.Add("fig10 ATC gain over CR",
		fmt.Sprintf("%.1f-%.0fx", paperdata.Fig10.GainMin, paperdata.Fig10.GainMax),
		fmt.Sprintf("%.1fx", gain),
		validate.InBand(gain, paperdata.Fig10.GainMin, paperdata.Fig10.GainMax, 3))

	// --- Figure 1 direction: CS/CR grows with cluster size.
	small := sc.NodeSteps[0]
	crS, err := typeAExec(sc, cluster.CR, "lu", small, seed)
	if err != nil {
		return nil, err
	}
	csS, err := typeAExec(sc, cluster.CS, "lu", small, seed)
	if err != nil {
		return nil, err
	}
	csL := measured["CS"] // at the largest step, computed above
	card.Add("fig1 CS scalability",
		fmt.Sprintf("CS/CR grows with VC size (%.2f → %.2f)", paperdata.Fig1.CSAt2VMs, paperdata.Fig1.CSAt32VMs),
		fmt.Sprintf("%.3f at %d nodes → %.3f at %d nodes", csS/crS, small, csL, nodes),
		csL > csS/crS*0.8) // direction with 20% tolerance for run noise

	// --- Figure 2 directions.
	f2cr, err := runFig2Approach(sc, cluster.CR, seed)
	if err != nil {
		return nil, err
	}
	f2cs, err := runFig2Approach(sc, cluster.CS, seed)
	if err != nil {
		return nil, err
	}
	pingRatio := f2cs.ping / f2cr.ping
	card.Add("fig2 ping under CS",
		fmt.Sprintf("RTT %.2fx CR", paperdata.Fig2.PingRTTRatio),
		fmt.Sprintf("%.2fx", pingRatio),
		validate.SameDirection(paperdata.Fig2.PingRTTRatio, pingRatio))
	sphinxRatio := f2cs.sphinx / f2cr.sphinx
	card.Add("fig2 sphinx3 under CS",
		fmt.Sprintf("time %.2fx CR", paperdata.Fig2.Sphinx3Ratio),
		fmt.Sprintf("%.2fx", sphinxRatio),
		validate.SameDirection(paperdata.Fig2.Sphinx3Ratio, sphinxRatio))
	bonnieRatio := f2cs.bonnie / f2cr.bonnie
	card.Add("fig2 bonnie++ under CS",
		"unaffected",
		fmt.Sprintf("%.2fx", bonnieRatio),
		bonnieRatio > 0.8 && bonnieRatio < 1.2)

	// --- Figure 5: spin-latency/exec correlation for lu.
	pts, err := runner.Map(len(sc.SliceSweep), func(i int) (sweepPoint, error) {
		return runSweepPoint(sc, "lu", workload.ClassB, sc.SliceSweep[i], seed)
	})
	if err != nil {
		return nil, err
	}
	var sweepExecs, spins []float64
	for _, pt := range pts {
		sweepExecs = append(sweepExecs, pt.exec)
		spins = append(spins, pt.spin.Seconds())
	}
	r, err := metrics.Pearson(spins, sweepExecs)
	if err != nil {
		return nil, err
	}
	card.Add("fig5 spin/exec correlation (lu)",
		fmt.Sprintf("Pearson > %.1f", paperdata.Fig5.MinPearson),
		fmt.Sprintf("%.3f", r),
		r > paperdata.Fig5.MinPearson)
	sweepGain := sweepExecs[0] / metrics.Min(sweepExecs)
	card.Add("fig5 slice-sweep improvement (lu)",
		fmt.Sprintf("up to ~%.0fx", paperdata.Fig5.MaxGain),
		fmt.Sprintf("%.1fx", sweepGain),
		sweepGain >= 2)

	// --- §III-B: the Euclidean optimizer picks a sub-millisecond slice.
	_, perApp, err := runFig8(sc, seed)
	if err != nil {
		return nil, err
	}
	best, _, err := core.OptimizeThreshold(perApp)
	if err != nil {
		return nil, err
	}
	card.Add("§III-B minimum-slice threshold",
		fmt.Sprintf("%.1fms", paperdata.Euclid.BestMS),
		best.String(),
		best >= 100*sim.Microsecond && best <= 500*sim.Microsecond)

	// --- Figure 13: web under CS, bonnie flat, via the shared mixed run.
	mixed, err := mixedNonparallel(sc, seed)
	if err != nil {
		return nil, err
	}
	webCS, ok := cellFloat(mixed.ioApps, 0, 3) // row 0 = web, col 3 = CS
	if !ok {
		return nil, fmt.Errorf("score: cannot parse web/CS cell")
	}
	card.Add("fig13 web server under CS",
		fmt.Sprintf("~%.2f of CR", paperdata.Fig13.WebUnderCS),
		fmt.Sprintf("%.3f", webCS),
		validate.InBand(webCS, paperdata.Fig13.WebUnderCS, paperdata.Fig13.WebUnderCS, 2))
	bonnieFlat := true
	var worst float64 = 1
	for col := 2; col < len(mixed.ioApps.Headers); col++ {
		v, ok := cellFloat(mixed.ioApps, 1, col)
		if !ok {
			continue
		}
		if v < 0.85 || v > 1.15 {
			bonnieFlat = false
		}
		if math.Abs(v-1) > math.Abs(worst-1) {
			worst = v
		}
	}
	card.Add("fig13 bonnie++ flat across approaches",
		"≈ CR everywhere",
		fmt.Sprintf("worst deviation %.3f", worst),
		bonnieFlat)

	// Render.
	t := report.New(
		fmt.Sprintf("Reproduction scorecard: %d/%d paper claims reproduced at scale %q",
			card.Passed(), len(card.Checks), sc.Name),
		"Check", "Paper", "Measured", "Verdict")
	for _, c := range card.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "DIVERGES"
		}
		t.Add(c.Name, c.Paper, c.Measured, verdict)
	}
	t.AddNote("Known divergences and their causes are documented in EXPERIMENTS.md.")
	return []*report.Table{t}, nil
}

func cellFloat(t *report.Table, row, col int) (float64, bool) {
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	return v, err == nil
}
