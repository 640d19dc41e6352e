package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"atcsched/internal/sim"
)

// SchedKind labels a scheduling record.
type SchedKind int

// Scheduling record kinds.
const (
	// SchedDispatch: a VCPU started running on a PCPU.
	SchedDispatch SchedKind = iota
	// SchedPreempt: a VCPU lost its PCPU (slice end or tickle).
	SchedPreempt
	// SchedBlock: a VCPU blocked (I/O, message, timer, idle).
	SchedBlock
	// SchedWake: a blocked VCPU became runnable.
	SchedWake
	// SchedSlice: a scheduler changed a VM's slice (ATC and ATC×DFRS).
	SchedSlice
	// SchedSwap: the node's scheduling policy was replaced at a period
	// boundary.
	SchedSwap
)

var schedKindNames = [...]string{"dispatch", "preempt", "block", "wake", "slice", "swap"}

// String returns the record kind name.
func (k SchedKind) String() string {
	if k >= 0 && int(k) < len(schedKindNames) {
		return schedKindNames[k]
	}
	return fmt.Sprintf("SchedKind(%d)", int(k))
}

// MarshalText names the kind in JSON snapshots.
func (k SchedKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a kind name MarshalText wrote; an unknown name is
// an error.
func (k *SchedKind) UnmarshalText(b []byte) error {
	i := slices.Index(schedKindNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("telemetry: unknown scheduling record kind %q", b)
	}
	*k = SchedKind(i)
	return nil
}

// SchedEvent is one scheduling record: a dispatch, preemption, block,
// wake, slice change or policy swap on one node.
type SchedEvent struct {
	At   sim.Time  `json:"at"`
	Kind SchedKind `json:"kind"`
	Node int       `json:"node"`
	// PCPU is the core index (-1 when not applicable).
	PCPU int `json:"pcpu"`
	// VM/VCPU identify the subject ("" / -1 when not applicable).
	VM   string `json:"vm,omitempty"`
	VCPU int    `json:"vcpu"`
	// Arg carries kind-specific data: the slice for SchedSlice.
	Arg sim.Time `json:"arg,omitempty"`
}

// String renders one record as a stable single line.
func (e SchedEvent) String() string {
	if e.Kind == SchedSlice {
		return fmt.Sprintf("%-12v node%d %-8s vm=%s slice=%v", e.At, e.Node, e.Kind, e.VM, e.Arg)
	}
	return fmt.Sprintf("%-12v node%d %-8s pcpu=%d vcpu=%s/%d", e.At, e.Node, e.Kind, e.PCPU, e.VM, e.VCPU)
}

// Record appends one scheduling record; past RecordCap and its slack
// the oldest records are evicted and counted. A registry's records must
// arrive in time order, as a node's do on its engine clock: snapshots
// merge the registries' records without sorting them.
func (r *Registry) Record(e SchedEvent) {
	r.mu.Lock()
	if r.records = append(r.records, e); overCap(len(r.records), r.opts.RecordCap) {
		r.records = keepNewest(r.records, r.opts.RecordCap, &r.recordsDropped)
	}
	r.mu.Unlock()
}

// WriteRecords writes records as text, one String line each.
func WriteRecords(w io.Writer, records []SchedEvent) error {
	bw := bufio.NewWriter(w)
	for _, e := range records {
		bw.WriteString(e.String())
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteRecordsCSV writes records as CSV with a header line.
func WriteRecordsCSV(w io.Writer, records []SchedEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("at_ns,kind,node,pcpu,vm,vcpu,arg_ns\n")
	for _, e := range records {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%s,%d,%d\n",
			int64(e.At), e.Kind, e.Node, e.PCPU, e.VM, e.VCPU, int64(e.Arg))
	}
	return bw.Flush()
}

// RecordSummary tabulates snap's records per VM (dispatches, preempts,
// blocks, wakes): a quick textual profile of a run, with a note of how
// many older records the caps evicted.
func RecordSummary(snap Snapshot) string {
	per := map[string]*[SchedWake + 1]int{}
	for _, e := range snap.Records {
		if e.VM == "" {
			continue
		}
		a := per[e.VM]
		if a == nil {
			a = new([SchedWake + 1]int)
			per[e.VM] = a
		}
		if e.Kind >= SchedDispatch && e.Kind <= SchedWake {
			a[e.Kind]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "vm", "dispatches", "preempts", "blocks", "wakes")
	for _, vm := range slices.Sorted(maps.Keys(per)) {
		a := per[vm]
		fmt.Fprintf(&b, "%-16s %10d %10d %10d %10d\n", vm, a[SchedDispatch], a[SchedPreempt], a[SchedBlock], a[SchedWake])
	}
	if snap.DroppedRecords > 0 {
		fmt.Fprintf(&b, "(%d older records dropped by the cap)\n", snap.DroppedRecords)
	}
	return b.String()
}

// WriteTrace renders snap's records as a -trace spec asks: "summary"
// prints RecordSummary to stdout, "text:<file>" writes WriteRecords'
// lines to the file and "csv:<file>" writes WriteRecordsCSV's.
func WriteTrace(stdout io.Writer, spec string, snap Snapshot) error {
	if spec == "summary" {
		_, err := io.WriteString(stdout, RecordSummary(snap))
		return err
	}
	format, path, _ := strings.Cut(spec, ":")
	var write func(io.Writer, []SchedEvent) error
	switch format {
	case "text":
		write = WriteRecords
	case "csv":
		write = WriteRecordsCSV
	}
	if write == nil || path == "" {
		return fmt.Errorf("unknown -trace spec %q (summary | text:<file> | csv:<file>)", spec)
	}
	return writeFile(path, func(w io.Writer) error { return write(w, snap.Records) })
}
