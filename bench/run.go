package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// runOpts configure one benchmark run.
type runOpts struct {
	workloads []string
	seed      uint64
	seconds   float64 // measuring time per workload when reps is 0
	reps      int
	trace     bool
	spansPath string
	outPath   string
	commit    string
	spec      *spec
	exe       string // the binary re-executed for each rep
	tiny      bool   // smoke-test sizes
}

// minReps keeps a time-boxed run from reporting a median of fewer samples
// than this, even when one rep outlasts the box.
const minReps = 3

// repOutcome is one rep as seen by the parent.
type repOutcome struct {
	res    *repResult
	err    error
	dur    time.Duration
	traced bool
	probes bool
	// hostRef is the mean of the reference measurements before and after
	// the rep (see calib.go).
	hostRef float64
}

// wlRun collects one workload's reps.
type wlRun struct {
	name   string
	reps   []repOutcome
	spent  time.Duration // host time of its reps
	probed bool
}

// more reports whether the workload should run another rep.
func (w *wlRun) more(o runOpts) bool {
	n := len(w.reps)
	if o.reps > 0 {
		return n < o.reps
	}
	if n < minReps {
		return true
	}
	// Project the next rep from the last one that ran no probes.
	next := w.reps[n-1].dur
	for i := n - 1; i >= 0; i-- {
		if !w.reps[i].probes {
			next = w.reps[i].dur
			break
		}
	}
	return (w.spent + next).Seconds() <= o.seconds
}

// run measures every selected workload, prints the report and writes the
// requested files. It returns whether every correctness check passed.
func run(o runOpts, stdout io.Writer) (bool, error) {
	runs := make([]*wlRun, len(o.workloads))
	for i, name := range o.workloads {
		runs[i] = &wlRun{name: name}
	}
	// Workloads take turns a rep at a time, in alternating order, so a
	// slow spell on the host is spread over all of them. The host reference
	// is measured before the first rep and after every rep; smoke-test
	// sizes measure nothing, so they leave it out.
	measureRef := hostRef
	if o.tiny {
		measureRef = func() float64 { return 0 }
	}
	ref := measureRef()
	for round := 0; ; round++ {
		ran := false
		for i := range runs {
			w := runs[i]
			if round%2 == 1 {
				w = runs[len(runs)-1-i]
			}
			if !w.more(o) {
				continue
			}
			// A traced run alternates traced and untraced reps: the first
			// gives the per-layer metrics (and runs the probes once), the
			// second the baseline for the tracing overhead.
			traced := o.trace && len(w.reps)%2 == 0
			probes := traced && !w.probed
			w.probed = w.probed || probes
			t := time.Now()
			rep := spawnRep(o, w.name, traced, probes)
			after := measureRef()
			rep.hostRef, ref = (ref+after)/2, after
			w.reps = append(w.reps, rep)
			w.spent += time.Since(t)
			ran = true
		}
		if !ran {
			break
		}
	}

	doc := outFile{
		Commit: o.commit, Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Trace: o.trace,
	}
	fmt.Fprintln(stdout, "# workload metric median q1 q3 n unit")
	allOK := true
	var traced []tracedRep
	for _, w := range runs {
		r := summarizeRun(o, w)
		allOK = allOK && r.Correct
		doc.Workloads = append(doc.Workloads, r)
		for _, m := range r.Metrics {
			fmt.Fprintf(stdout, "%s %s %.6g %.6g %.6g %d %s\n", w.name, m.Name, m.Median, m.Q1, m.Q3, m.N, m.Unit)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(stdout, "# FAIL %s: %s\n", w.name, p)
		}
		for i, rep := range w.reps {
			if rep.traced && rep.res != nil {
				traced = append(traced, tracedRep{workload: w.name, rep: i, spans: rep.res.Spans})
			}
		}
	}
	if o.trace {
		if err := writeSpans(o.spansPath, traced); err != nil {
			return false, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(stdout, "# spans of %d traced reps written to %s\n", len(traced), o.spansPath)
	}
	if o.outPath != "" {
		if err := writeJSONFile(o.outPath, &doc); err != nil {
			return false, err
		}
	}
	return allOK, writeJSON(stdout, resultLine(o, doc))
}

// spawnRep runs one rep in a child process and waits for it.
func spawnRep(o runOpts, workload string, traced, probes bool) repOutcome {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-probes=" + strconv.FormatBool(probes),
		"-tiny=" + strconv.FormatBool(o.tiny)}
	cmd := exec.Command(o.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	rep := repOutcome{dur: time.Since(start), traced: traced, probes: probes}
	if err != nil {
		rep.err = fmt.Errorf("rep process: %w", err)
		return rep
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		rep.err = fmt.Errorf("rep result: %w", err)
		return rep
	}
	rep.res = &res
	return rep
}

// hostFactor scales the rep's CPU times to the reference host speed; 1
// when the reference was not measured.
func (rep repOutcome) hostFactor() float64 {
	if rep.hostRef <= 0 {
		return 1
	}
	return refNominal / rep.hostRef
}

// outFile is the -out document: every metric of every workload with its
// per-rep samples, which `bench compare` reads.
type outFile struct {
	Commit     string      `json:"commit,omitempty"`
	Go         string      `json:"go"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       uint64      `json:"seed"`
	Trace      bool        `json:"trace"`
	Workloads  []wlSummary `json:"workloads"`
}

type wlSummary struct {
	Name      string      `json:"name"`
	Reps      int         `json:"reps"`
	Correct   bool        `json:"correct"`
	Attempted uint64      `json:"attempted"`
	Failed    uint64      `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   []outMetric `json:"metrics"`
}

type outMetric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarizeRun gates one workload's reps and reduces them to metrics.
// End-to-end metrics come from untraced reps, per-layer metrics from
// traced ones. Every rep must have succeeded, reported no problem, and
// produced the same fingerprint: same inputs, same outputs.
func summarizeRun(o runOpts, w *wlRun) wlSummary {
	s := wlSummary{Name: w.name, Reps: len(w.reps)}
	samples := map[string][]float64{}
	var tracedWall, plainWall []float64
	fingerprint := ""
	for i, rep := range w.reps {
		if rep.err != nil {
			s.Problems = append(s.Problems, fmt.Sprintf("rep %d: %v", i, rep.err))
			s.Attempted++
			s.Failed++
			continue
		}
		res := rep.res
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for _, p := range res.Problems {
			s.Problems = append(s.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if fingerprint == "" {
			fingerprint = res.Fingerprint
		} else if res.Fingerprint != fingerprint {
			s.Problems = append(s.Problems, fmt.Sprintf("rep %d output differs: %s, rep 0: %s", i, res.Fingerprint, fingerprint))
		}
		if rep.traced {
			tracedWall = append(tracedWall, res.Values["wall_s"])
		} else {
			plainWall = append(plainWall, res.Values["wall_s"])
			samples["ref_cpu_ms"] = append(samples["ref_cpu_ms"], rep.hostRef*1e3)
			if res.Attempted > 0 {
				samples["error_rate"] = append(samples["error_rate"], float64(res.Failed)/float64(res.Attempted))
			}
		}
		for name, v := range res.Values {
			d, ok := metricByName[name]
			if !ok || (d.kind == layer) != rep.traced {
				continue
			}
			if d.scaled {
				v *= rep.hostFactor()
			}
			samples[name] = append(samples[name], v)
		}
	}
	if base := median(plainWall); base > 0 {
		for _, t := range tracedWall {
			samples["trace.overhead_x"] = append(samples["trace.overhead_x"], t/base)
		}
	}
	s.Correct = len(s.Problems) == 0 && s.Failed == 0
	for _, d := range catalog {
		xs, ok := samples[d.name]
		if !ok && !(o.trace && d.kind == layer) {
			continue
		}
		// A per-layer metric of a layer this workload never reaches is
		// reported as 0 from no samples.
		st := summarize(xs)
		s.Metrics = append(s.Metrics, outMetric{Name: d.name, Unit: d.unit,
			Median: st.Median, Q1: st.Q1, Q3: st.Q3, N: st.N, Samples: xs})
	}
	return s
}

// resultLine is the last line a run prints: the BENCHMARK.json metrics of
// the run's kind (end-to-end, or per-layer when traced). When several
// workloads ran, metric names are prefixed with "workload/".
func resultLine(o runOpts, doc outFile) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared := o.spec.EndToEnd
	if o.trace {
		declared = o.spec.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, w := range doc.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range declared {
			key := m.Name
			if len(doc.Workloads) > 1 {
				key = w.Name + "/" + m.Name
			}
			line.Metrics[key] = value{Value: w.metric(m.Name).Median, Unit: m.Unit}
		}
	}
	return line
}

func (w wlSummary) metric(name string) outMetric {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m
		}
	}
	return outMetric{Name: name}
}

// writeJSON writes v as one line.
func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readOutFile loads a document written by -out.
func readOutFile(path string) (*outFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc outFile
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}
