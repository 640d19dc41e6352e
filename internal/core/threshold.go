package core

import (
	"fmt"
	"sort"

	"atcsched/internal/metrics"
	"atcsched/internal/sim"
)

// ThresholdResult reports the Euclidean closeness metric for one
// candidate minimum time-slice threshold (§III-B).
type ThresholdResult struct {
	Slice sim.Time
	// D is Equation (1)'s distance between the candidate's normalized
	// execution times and each application's own optimum.
	D float64
}

// OptimizeThreshold reproduces §III-B: given, per application, the
// normalized execution time measured under each candidate slice, it
// computes O_i (each application's minimum over all candidates) and
// D(O,P) per candidate, returning the candidate with the smallest D plus
// the full table (sorted by descending slice, matching the paper's
// presentation order). Candidates with exactly equal D resolve to the
// first in descending-slice order, the largest slice, so the answer
// never depends on map iteration order.
func OptimizeThreshold(perApp map[string]map[sim.Time]float64) (best sim.Time, table []ThresholdResult, err error) {
	if len(perApp) == 0 {
		return 0, nil, fmt.Errorf("core: no applications")
	}
	// Collect the candidate set and check consistency.
	var candidates []sim.Time
	var apps []string
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for slice := range perApp[apps[0]] {
		candidates = append(candidates, slice)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] > candidates[j] })
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("core: no candidate slices")
	}
	for _, app := range apps {
		if len(perApp[app]) != len(candidates) {
			return 0, nil, fmt.Errorf("core: app %q measured under %d slices, want %d", app, len(perApp[app]), len(candidates))
		}
		for _, s := range candidates {
			if _, ok := perApp[app][s]; !ok {
				return 0, nil, fmt.Errorf("core: app %q missing slice %v", app, s)
			}
		}
	}

	// O_i: per-application optimum across candidates.
	optimum := make([]float64, len(apps))
	for i, app := range apps {
		vals := make([]float64, 0, len(candidates))
		for _, s := range candidates {
			vals = append(vals, perApp[app][s])
		}
		optimum[i] = metrics.Min(vals)
	}

	table = make([]ThresholdResult, 0, len(candidates))
	bestD := -1.0
	for _, s := range candidates {
		p := make([]float64, len(apps))
		for i, app := range apps {
			p[i] = perApp[app][s]
		}
		d, derr := metrics.Euclidean(optimum, p)
		if derr != nil {
			return 0, nil, derr
		}
		table = append(table, ThresholdResult{Slice: s, D: d})
		if bestD < 0 || d < bestD {
			bestD = d
			best = s
		}
	}
	return best, table, nil
}
