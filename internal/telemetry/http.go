package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
)

// appendName appends a metric name ("spin_wait_ns" or "daemon.apply")
// made Prometheus-legal, with the atc_ prefix, and then suffix.
func appendName(b []byte, name, suffix string) []byte {
	b = append(b, "atc_"...)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return append(b, suffix...)
}

// plusInf is the le label of a histogram's implicit last bucket.
var plusInf = []byte("+Inf")

// writeHead writes a sample's name and label set, {node="0",vm="vm1"}
// with le="…" last when le is set, and the space before the value; the
// global label (-1, "") with no le writes no braces at all.
func writeHead(w *bufio.Writer, name []byte, lab Label, le []byte) {
	w.Write(name)
	sep := byte('{')
	open := func(label string) {
		w.WriteByte(sep)
		sep = ','
		w.WriteString(label)
		w.WriteString(`="`)
	}
	if lab.Node >= 0 {
		open("node")
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(lab.Node), 10))
		w.WriteByte('"')
	}
	if lab.VM != "" {
		open("vm")
		w.WriteString(lab.VM)
		w.WriteByte('"')
	}
	if le != nil {
		open("le")
		w.Write(le)
		w.WriteByte('"')
	}
	if sep == ',' {
		w.WriteByte('}')
	}
	w.WriteByte(' ')
}

// writeUint and writeFloat write one sample line, formatting the value
// as %d and %g do.
func writeUint(w *bufio.Writer, name []byte, lab Label, le []byte, v uint64) {
	writeHead(w, name, lab, le)
	w.Write(strconv.AppendUint(w.AvailableBuffer(), v, 10))
	w.WriteByte('\n')
}

func writeFloat(w *bufio.Writer, name []byte, lab Label, v float64) {
	writeHead(w, name, lab, nil)
	w.Write(strconv.AppendFloat(w.AvailableBuffer(), v, 'g', -1, 64))
	w.WriteByte('\n')
}

// droppedHeads are the TYPE line and sample name of the counters of
// evicted series points, spans and scheduling records.
var droppedHeads = [...]string{
	"# TYPE atc_telemetry_dropped_points_total counter\natc_telemetry_dropped_points_total ",
	"# TYPE atc_telemetry_dropped_spans_total counter\natc_telemetry_dropped_spans_total ",
	"# TYPE atc_telemetry_dropped_records_total counter\natc_telemetry_dropped_records_total ",
}

// WritePrometheus renders a snapshot as Prometheus text exposition
// (version 0.0.4). Counters and gauges map directly; each series
// contributes a gauge holding its last sample; histograms become
// standard _bucket/_sum/_count families with le bounds in seconds of
// virtual time. Spans are not exported; atc_telemetry_dropped_*_total
// count what the retention caps evicted, at zero too. Each sample's name
// is built in one reused buffer, so a scrape allocates once per metric
// family, not once per sample.
func WritePrometheus(w *bufio.Writer, snap Snapshot) error {
	typed := map[string]bool{}
	var name []byte
	// family sets name to metric's sample name with suffix and writes
	// the family's TYPE line before its first sample.
	family := func(metric, suffix, typ string) []byte {
		name = appendName(name[:0], metric, suffix)
		if !typed[string(name)] {
			typed[string(name)] = true
			w.WriteString("# TYPE ")
			w.Write(name)
			w.WriteByte(' ')
			w.WriteString(typ)
			w.WriteByte('\n')
		}
		return name
	}
	for _, c := range snap.Counters {
		writeUint(w, family(c.Name, "_total", "counter"), c.Label, nil, c.Value)
	}
	for _, g := range snap.Gauges {
		writeFloat(w, family(g.Name, "", "gauge"), g.Label, g.Value)
	}
	for _, s := range snap.Series {
		if len(s.Points) == 0 {
			continue
		}
		writeFloat(w, family(s.Name, "_last", "gauge"), s.Label, s.Points[len(s.Points)-1].V)
	}
	var le []byte
	for _, h := range snap.Histograms {
		bucket := family(h.Name, "_bucket", "histogram")
		for i, b := range h.Bounds {
			le = strconv.AppendFloat(le[:0], b.Seconds(), 'g', -1, 64)
			writeUint(w, bucket, h.Label, le, h.Counts[i])
		}
		writeUint(w, bucket, h.Label, plusInf, h.Count)
		name = appendName(name[:0], h.Name, "_sum")
		writeFloat(w, name, h.Label, h.Sum.Seconds())
		name = appendName(name[:0], h.Name, "_count")
		writeUint(w, name, h.Label, nil, h.Count)
	}
	for i, v := range [...]uint64{snap.DroppedPoints, snap.DroppedSpans, snap.DroppedRecords} {
		w.WriteString(droppedHeads[i])
		w.Write(strconv.AppendUint(w.AvailableBuffer(), v, 10))
		w.WriteByte('\n')
	}
	return w.Flush()
}

// debugSnapshot is the /debug/atc JSON shape: the full snapshot plus a
// summary block for quick inspection.
type debugSnapshot struct {
	Summary  map[string]any `json:"summary"`
	Snapshot Snapshot       `json:"snapshot"`
}

// Handler serves the plane over HTTP:
//
//	/metrics    — Prometheus text exposition of p.Metrics
//	/debug/atc  — full JSON snapshot with a summary header
//
// Each request reads the plane afresh, so a live run is scraped
// mid-flight; a /metrics request copies no spans and no series history,
// so it costs the same however long the run has been going. Extra
// summary fields (e.g. daemon stats) come from summaryFn (may be nil).
func Handler(p *Plane, summaryFn func() map[string]any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		_ = WritePrometheus(bw, p.Metrics())
	})
	mux.HandleFunc("/debug/atc", func(w http.ResponseWriter, r *http.Request) {
		snap := p.Snapshot()
		sum := map[string]any{
			"counters": len(snap.Counters),
			"gauges":   len(snap.Gauges),
			"series":   len(snap.Series),
			"spans":    len(snap.Spans),
		}
		if summaryFn != nil {
			ks := summaryFn()
			keys := make([]string, 0, len(ks))
			for k := range ks {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				sum[k] = ks[k]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(debugSnapshot{Summary: sum, Snapshot: snap})
	})
	return mux
}
