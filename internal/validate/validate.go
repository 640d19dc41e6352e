// Package validate scores measured results against the paper's stated
// claims (internal/paperdata): rank agreement between approach
// orderings, band membership for quoted ratios, and directional checks.
// The "score" experiment uses it to render a reproduction scorecard.
package validate

import (
	"fmt"
	"sort"

	"atcsched/internal/metrics"
)

// Check is one claim verdict.
type Check struct {
	Name     string
	Paper    string // the paper's claim, rendered
	Measured string // what we measured, rendered
	Pass     bool
}

// Scorecard accumulates claim verdicts.
type Scorecard struct {
	Checks []Check
}

// Add records a verdict.
func (s *Scorecard) Add(name, paper, measured string, pass bool) {
	s.Checks = append(s.Checks, Check{Name: name, Paper: paper, Measured: measured, Pass: pass})
}

// Passed returns how many checks passed.
func (s *Scorecard) Passed() int {
	n := 0
	for _, c := range s.Checks {
		if c.Pass {
			n++
		}
	}
	return n
}

// SpearmanRank returns the Spearman rank correlation between the
// orderings implied by two value maps over the same keys (ties get
// average ranks). It errors when the key sets differ or fewer than two
// keys are given.
func SpearmanRank(a, b map[string]float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("validate: need matching key sets of >= 2, got %d vs %d", len(a), len(b))
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; !ok {
			return 0, fmt.Errorf("validate: key %q missing from second map", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ra, rb := ranks(keys, a), ranks(keys, b)
	x, y := make([]float64, len(keys)), make([]float64, len(keys))
	for i, k := range keys {
		x[i], y[i] = ra[k], rb[k]
	}
	return metrics.Pearson(x, y)
}

// ranks assigns average ranks (1-based) to the keys by their values.
func ranks(keys []string, vals map[string]float64) map[string]float64 {
	idx := append([]string(nil), keys...)
	sort.SliceStable(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	out := make(map[string]float64, len(idx))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && vals[idx[j+1]] == vals[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// InBand reports whether v lies within [lo*slack_lo, hi*slack_hi]-style
// bounds; slack widens the paper band multiplicatively on both sides
// (slack >= 1).
func InBand(v, lo, hi, slack float64) bool {
	if slack < 1 {
		slack = 1
	}
	return v >= lo/slack && v <= hi*slack
}

// SameDirection reports whether measured moved the same way as the paper
// claims relative to a baseline of 1.0 (ratio > 1 means "worse/larger").
func SameDirection(paperRatio, measuredRatio float64) bool {
	switch {
	case paperRatio > 1:
		return measuredRatio > 1
	case paperRatio < 1:
		return measuredRatio < 1
	default:
		return measuredRatio == 1
	}
}
