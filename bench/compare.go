package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
)

// Verdicts of the comparator.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares a head commit's samples of one metric with its
// parent's. Samples pair up by index, so the two sides must be run
// alternately for each pair to share the host's conditions. The
// tolerance is the bound as a share of the parent median, and at least
// floor.
//
//   - better: the head wins at least 9 of every 10 pairs (ties count for
//     neither, and at least 10 pairs are needed) and the medians differ by
//     more than the parent's interquartile range.
//   - unresolved: either side's interquartile range is wider than the
//     tolerance, unless every head sample beats every parent sample.
//   - worse: the head median is worse than the parent's by more than the
//     tolerance.
//   - unchanged: anything else.
func verdict(base, head []float64, higherIsBetter bool, bound, floor float64) (v string, wins, pairs int) {
	sign := 1.0 // positive differences are regressions
	if higherIsBetter {
		sign = -1
	}
	bs, hs := summarize(base), summarize(head)
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	delta := sign * (hs.Median - bs.Median)
	tol := max(bound*math.Abs(bs.Median), floor)
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && -delta > bs.Q3-bs.Q1:
		return better, wins, pairs
	case max(bs.Q3-bs.Q1, hs.Q3-hs.Q1) > tol && !allBetter(base, head, sign):
		return unresolved, wins, pairs
	case delta > tol:
		return worse, wins, pairs
	}
	return unchanged, wins, pairs
}

// allBetter reports whether every head sample beats every base sample.
func allBetter(base, head []float64, sign float64) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareMain implements `bench compare base head`: one row per
// (workload, metric) that has a bound. It returns 1 when any metric is
// worse or unresolved, or the head run failed its checks.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare 'base*.json' 'head*.json'")
		return 2
	}
	s, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	base, err := readSide(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	head, err := readSide(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	if compare(s, base, head, stdout) {
		return 1
	}
	return 0
}

// readSide loads every -out file the pattern matches and concatenates
// their samples per (workload, metric), files in name order. Running the
// two commits alternately, one file each per turn under matching names,
// makes pair i compare the i-th turn of each.
func readSide(pattern string) ([]wlSummary, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no such file", pattern)
	}
	var out []wlSummary
	for _, p := range paths {
		doc, err := readOutFile(p)
		if err != nil {
			return nil, err
		}
		for _, w := range doc.Workloads {
			i := slices.IndexFunc(out, func(x wlSummary) bool { return x.Name == w.Name })
			if i < 0 {
				out = append(out, wlSummary{Name: w.Name, Correct: true})
				i = len(out) - 1
			}
			dst := &out[i]
			dst.Correct = dst.Correct && w.Correct
			for _, m := range w.Metrics {
				j := slices.IndexFunc(dst.Metrics, func(x outMetric) bool { return x.Name == m.Name })
				if j < 0 {
					dst.Metrics = append(dst.Metrics, outMetric{Name: m.Name, Unit: m.Unit})
					j = len(dst.Metrics) - 1
				}
				dst.Metrics[j].Samples = append(dst.Metrics[j].Samples, m.Samples...)
			}
		}
	}
	for i := range out {
		for j := range out[i].Metrics {
			m := &out[i].Metrics[j]
			s := summarize(m.Samples)
			m.Median, m.Q1, m.Q3, m.N = s.Median, s.Q1, s.Q3, s.N
		}
	}
	return out, nil
}

// compare prints the verdict table and reports whether any row is worse
// or unresolved, or a head workload failed its checks.
func compare(s *spec, base, head []wlSummary, w io.Writer) (bad bool) {
	fmt.Fprintln(w, "# workload metric base_median base_q1 base_q3 head_median head_q1 head_q3 wins/pairs bound verdict")
	for _, hw := range head {
		i := slices.IndexFunc(base, func(x wlSummary) bool { return x.Name == hw.Name })
		if i < 0 {
			fmt.Fprintf(w, "# %s: not in the base run\n", hw.Name)
			continue
		}
		bw := base[i]
		if !hw.Correct {
			fmt.Fprintf(w, "# %s: head run failed its correctness checks\n", hw.Name)
			bad = true
		}
		for _, hm := range hw.Metrics {
			bound, floor, ok := s.bound(hm.Name)
			bm := bw.metric(hm.Name)
			if !ok || bm.N == 0 || hm.N == 0 {
				continue
			}
			v, wins, pairs := verdict(bm.Samples, hm.Samples, metricByName[hm.Name].better == "higher", bound, floor)
			bad = bad || v == worse || v == unresolved
			fmt.Fprintf(w, "%s %s %.6g %.6g %.6g %.6g %.6g %.6g %d/%d %g %s\n", hw.Name, hm.Name,
				bm.Median, bm.Q1, bm.Q3, hm.Median, hm.Q1, hm.Q3, wins, pairs, bound, v)
		}
	}
	return bad
}
