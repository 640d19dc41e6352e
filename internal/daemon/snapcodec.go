package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"atcsched/internal/core"
	"atcsched/internal/sim"
)

// The fleet snapshot codec is schema-directed: the encoder and the
// decoder below each spell out the five structs of the wire format
// (FleetSnapshot, core.Config, NodeSnapshot, Stats, VMSnapshot) field
// by field, with no reflection. The format itself is defined by the
// structs' json tags: Encode writes exactly what json.MarshalIndent
// with a two-space indent writes, and DecodeSnapshot accepts, rejects
// and fills exactly as json.Unmarshal does, except that a field set
// twice in one object is rejected. Adding a field means adding it to
// both halves; the reflection-driven oracle tests fail until it is.

// encoder appends indented JSON to b. first is true right after an
// opening bracket, before the container's first member.
type encoder struct {
	b     []byte
	depth int
	first bool
}

func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.b = append(e.b, c)
	e.first = false
}

// indent is a line break and the run of spaces newline cuts its
// indentation from, for any depth up to 32 (the schema nests 6 deep).
const indent = "\n                                                                "

func (e *encoder) newline() {
	if n := 1 + 2*e.depth; n <= len(indent) {
		e.b = append(e.b, indent[:n]...)
		return
	}
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

// elem starts the next member of the open container.
func (e *encoder) elem() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

func (e *encoder) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':', ' ')
}

// Members: omit marks an omitempty/omitzero field, written only when
// it is not the zero value.
const (
	always = false
	omit   = true
)

func (e *encoder) int(k string, v int, omitZero bool) {
	if v != 0 || !omitZero {
		e.key(k)
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	}
}

func (e *encoder) uint(k string, v uint64, omitZero bool) {
	if v != 0 || !omitZero {
		e.key(k)
		e.b = strconv.AppendUint(e.b, v, 10)
	}
}

func (e *encoder) bool(k string, v bool, omitZero bool) {
	if v || !omitZero {
		e.key(k)
		e.b = strconv.AppendBool(e.b, v)
	}
}

func (e *encoder) time(k string, v sim.Time, omitZero bool) {
	if v != 0 || !omitZero {
		e.key(k)
		e.b = sim.AppendTimeJSON(e.b, v)
	}
}

// times writes an omitempty []sim.Time member.
func (e *encoder) times(k string, v []sim.Time) {
	if len(v) == 0 {
		return
	}
	e.key(k)
	e.open('[')
	for _, t := range v {
		e.elem()
		e.b = sim.AppendTimeJSON(e.b, t)
	}
	e.close(']')
}

// Encode renders the snapshot as deterministic indented JSON (sorted
// nodes and VMs, stable field order) with a trailing newline.
func (s *FleetSnapshot) Encode() ([]byte, error) {
	vms := 0
	for i := range s.Nodes {
		vms += len(s.Nodes[i].VMs)
	}
	e := encoder{b: make([]byte, 0, 256+256*len(s.Nodes)+448*vms)}
	e.open('{')
	e.int("version", s.Version, always)
	e.key("config")
	e.open('{')
	e.time("default", s.Config.Default, omit)
	e.time("minThreshold", s.Config.MinThreshold, omit)
	e.time("alpha", s.Config.Alpha, omit)
	e.time("beta", s.Config.Beta, omit)
	e.int("window", s.Config.Window, omit)
	e.close('}')
	e.uint("periods", s.Periods, always)
	e.uint("decisions", s.Decisions, always)
	e.key("nodes")
	if s.Nodes == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.open('[')
		for i := range s.Nodes {
			e.elem()
			e.node(&s.Nodes[i])
		}
		e.close(']')
	}
	e.close('}')
	return append(e.b, '\n'), nil
}

func (e *encoder) node(n *NodeSnapshot) {
	e.open('{')
	e.int("node", n.Node, always)
	e.uint("periods", n.Periods, always)
	e.int("consecDrops", n.ConsecDrops, omit)
	e.key("stats")
	e.open('{')
	e.uint("retries", n.Stats.Retries, always)
	e.uint("droppedPeriods", n.Stats.DroppedPeriods, always)
	e.uint("staleSamples", n.Stats.StaleSamples, always)
	e.uint("degraded", n.Stats.Degraded, always)
	e.close('}')
	if len(n.VMs) > 0 {
		e.key("vms")
		e.open('[')
		for i := range n.VMs {
			e.elem()
			e.vm(&n.VMs[i])
		}
		e.close(']')
	}
	e.close('}')
}

func (e *encoder) vm(v *VMSnapshot) {
	e.open('{')
	e.int("id", v.ID, always)
	e.bool("known", v.Known, omit)
	e.bool("parallel", v.Parallel, omit)
	e.time("admin", v.Admin, omit)
	e.bool("hasLast", v.HasLast, omit)
	e.time("last", v.Last, omit)
	e.uint("seq", v.Seq, omit)
	e.int("staleRuns", v.StaleRuns, omit)
	e.int("observed", v.Observed, omit)
	e.times("lat", v.Lat)
	e.times("slice", v.Slice)
	e.close('}')
}

// DecodeSnapshot parses and version-checks a snapshot in one pass. A
// syntax error anywhere wins over a version mismatch, which wins over
// a field of the wrong type or a repeated field.
func DecodeSnapshot(data []byte) (s *FleetSnapshot, err error) {
	d := decoder{
		data:  data,
		nodes: pool[NodeSnapshot]{chunk: nodeChunk},
		vms:   pool[VMSnapshot]{chunk: vmChunk},
		times: pool[sim.Time]{chunk: timeChunk},
	}
	s = new(FleetSnapshot)
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*syntaxError)
			if !ok {
				panic(r)
			}
			s, err = nil, fmt.Errorf("daemon: snapshot: %w", se)
		}
	}()
	d.ws()
	if c := d.peek(); c != '{' && c != 'n' {
		d.inVersion = true // the old version probe reported this first
	}
	d.object("FleetSnapshot", fleetKeys, func(key string) {
		switch key {
		case "version":
			d.inVersion = true
			d.int(&s.Version)
			d.inVersion = false
		case "config":
			d.config(&s.Config)
		case "periods":
			d.uint(&s.Periods)
		case "decisions":
			d.uint(&s.Decisions)
		case "nodes":
			list(&d, &s.Nodes, &d.nodes, "[]NodeSnapshot", d.node)
		}
	})
	d.ws()
	if d.off < len(d.data) {
		d.fail("data after the top-level value")
	}
	switch {
	case d.verErr != nil:
		return nil, fmt.Errorf("daemon: snapshot: %w", d.verErr)
	case s.Version != SnapshotVersion:
		return nil, fmt.Errorf("daemon: snapshot version %d, want %d", s.Version, SnapshotVersion)
	case d.err != nil:
		return nil, fmt.Errorf("daemon: snapshot: %w", d.err)
	}
	return s, nil
}

// The decoder's schema: each struct's wire keys.
var (
	fleetKeys  = []string{"version", "config", "periods", "decisions", "nodes"}
	configKeys = []string{"default", "minThreshold", "alpha", "beta", "window"}
	nodeKeys   = []string{"node", "periods", "consecDrops", "stats", "vms"}
	statsKeys  = []string{"retries", "droppedPeriods", "staleSamples", "degraded"}
	vmKeys     = []string{"id", "known", "parallel", "admin", "hasLast", "last", "seq",
		"staleRuns", "observed", "lat", "slice"}
)

func (d *decoder) config(c *core.Config) {
	d.object("core.Config", configKeys, func(key string) {
		switch key {
		case "default":
			d.time(&c.Default)
		case "minThreshold":
			d.time(&c.MinThreshold)
		case "alpha":
			d.time(&c.Alpha)
		case "beta":
			d.time(&c.Beta)
		case "window":
			d.int(&c.Window)
		}
	})
}

func (d *decoder) node(n *NodeSnapshot) {
	d.object("NodeSnapshot", nodeKeys, func(key string) {
		switch key {
		case "node":
			d.int(&n.Node)
		case "periods":
			d.uint(&n.Periods)
		case "consecDrops":
			d.int(&n.ConsecDrops)
		case "stats":
			d.stats(&n.Stats)
		case "vms":
			list(d, &n.VMs, &d.vms, "[]VMSnapshot", d.vm)
		}
	})
}

func (d *decoder) stats(st *Stats) {
	d.object("Stats", statsKeys, func(key string) {
		switch key {
		case "retries":
			d.uint(&st.Retries)
		case "droppedPeriods":
			d.uint(&st.DroppedPeriods)
		case "staleSamples":
			d.uint(&st.StaleSamples)
		case "degraded":
			d.uint(&st.Degraded)
		}
	})
}

func (d *decoder) vm(v *VMSnapshot) {
	d.object("VMSnapshot", vmKeys, func(key string) {
		switch key {
		case "id":
			d.int(&v.ID)
		case "known":
			d.bool(&v.Known)
		case "parallel":
			d.bool(&v.Parallel)
		case "admin":
			d.time(&v.Admin)
		case "hasLast":
			d.bool(&v.HasLast)
		case "last":
			d.time(&v.Last)
		case "seq":
			d.uint(&v.Seq)
		case "staleRuns":
			d.int(&v.StaleRuns)
		case "observed":
			d.int(&v.Observed)
		case "lat":
			list(d, &v.Lat, &d.times, "[]sim.Time", d.time)
		case "slice":
			list(d, &v.Slice, &d.times, "[]sim.Time", d.time)
		}
	})
}

// decoder is a recursive-descent JSON scanner over data that fills
// the snapshot structs as it goes. Syntax errors panic with a
// *syntaxError (recovered by DecodeSnapshot) because they end the
// pass; type errors and repeated keys are recorded and the offending
// value is skipped, so a later syntax error or the version check can
// still take precedence.
type decoder struct {
	data  []byte
	off   int
	depth int

	obj, field string // the struct and key being decoded, for errors

	inVersion bool  // type errors now belong to the version check
	verErr    error // type error on the version field or top level
	err       error // first other type error or repeated key

	nodes pool[NodeSnapshot]
	vms   pool[VMSnapshot]
	times pool[sim.Time]
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("syntax error at byte %d: %s", e.off, e.msg)
}

func (d *decoder) fail(msg string) {
	panic(&syntaxError{off: d.off, msg: msg})
}

// typeErr records a value the schema cannot hold.
func (d *decoder) typeErr(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	if d.field != "" {
		err = fmt.Errorf("%s.%s: %w", d.obj, d.field, err)
	}
	if d.inVersion {
		if d.verErr == nil {
			d.verErr = err
		}
	} else if d.err == nil {
		d.err = err
	}
}

// eightSpaces is eight ' ' bytes read as one little-endian word.
const eightSpaces = 0x2020202020202020

// ws skips whitespace, runs of indentation eight bytes at a time.
func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ':
			d.off += d.spaces()
		case '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// spaces returns the length of the run of ' ' at the cursor, at least
// one: each eight-byte word read either is all spaces or ends the run
// at its first other byte. Fewer than eight bytes from the end it
// stops early, leaving the rest to ws.
func (d *decoder) spaces() int {
	n := 0
	for d.off+n+8 <= len(d.data) {
		if x := binary.LittleEndian.Uint64(d.data[d.off+n:]) ^ eightSpaces; x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		n += 8
	}
	return max(n, 1)
}

// peek returns the byte at the cursor, or 0 at the end of input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// open enters the container whose bracket is at the cursor and reports
// whether it has a first member (the cursor is then on it); an empty
// container is consumed whole.
func (d *decoder) open(end byte) bool {
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
	}
	d.off++
	d.ws()
	if d.peek() == end {
		d.off++
		d.depth--
		return false
	}
	return true
}

// more moves past a container member's separator, reporting whether
// another member follows; it consumes the closing bracket otherwise.
func (d *decoder) more(end byte) bool {
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return true
	case end:
		d.off++
		d.depth--
		return false
	}
	d.fail("expected ',' or '" + string(end) + "'")
	return false
}

// key scans an object key and its ':' and leaves the cursor on the
// value. It returns the key's literal, quotes included.
func (d *decoder) key() (tok []byte, esc bool) {
	tok, esc = d.str()
	d.ws()
	if d.peek() != ':' {
		d.fail("expected ':' after object key")
	}
	d.off++
	d.ws()
	return tok, esc
}

// str scans a string literal and returns it, quotes included; esc
// reports whether it holds escapes. Raw bytes above 0x1f pass as they
// are, invalid UTF-8 included, as in encoding/json.
func (d *decoder) str() (tok []byte, esc bool) {
	if d.peek() != '"' {
		d.fail("expected string")
	}
	start := d.off
	for i := start + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:d.off], esc
		case c == '\\':
			esc = true
			switch {
			case i+1 < len(d.data) && bytes.IndexByte([]byte(`"\/bfnrt`), d.data[i+1]) >= 0:
				i += 2
			case i+6 <= len(d.data) && d.data[i+1] == 'u' && isHex(d.data[i+2:i+6]):
				i += 6
			default:
				d.off = i
				d.fail("invalid escape in string")
			}
		case c < 0x20:
			d.off = i
			d.fail("control character in string")
		default:
			i++
		}
	}
	d.off = len(d.data)
	d.fail("unexpected end of input in string")
	return nil, false
}

func isHex(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans a number per the JSON grammar and returns it.
func (d *decoder) number() []byte {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.fail("invalid number")
	}
	if d.peek() == '.' {
		d.off++
		d.requireDigits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		d.requireDigits()
	}
	return d.data[start:d.off]
}

func (d *decoder) digits() {
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
}

func (d *decoder) requireDigits() {
	if !isDigit(d.peek()) {
		d.fail("invalid number")
	}
	d.digits()
}

// literal consumes the literal word (true, false or null) at the cursor.
func (d *decoder) literal(word string) {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		d.fail("invalid literal")
	}
	d.off += len(word)
}

// skip validates and steps over one value of any type.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		for more := d.open('}'); more; more = d.more('}') {
			d.key()
			d.skip()
		}
	case c == '[':
		for more := d.open(']'); more; more = d.more(']') {
			d.skip()
		}
	case c == '"':
		d.str()
	case c == '-' || isDigit(c):
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.fail("invalid character looking for a value")
	}
}

// mismatch skips a value the schema cannot hold and records the type
// error.
func (d *decoder) mismatch(want string) {
	start := d.off
	d.skip()
	kind := "number"
	switch d.data[start] {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	d.typeErr("cannot decode %s at byte %d into %s", kind, start, want)
}

// object decodes a JSON object into a schema struct whose wire keys are
// names: field is called with the matching name (compared as
// encoding/json does, exactly and then with bytes.EqualFold) and the
// cursor on the value. Unknown keys are skipped, a repeated key is an
// error, null leaves the struct untouched and any other value is a
// type error. Keys usually arrive in schema order, so each key is
// first compared with the name after the last one matched; only a
// miss searches all the names.
func (d *decoder) object(want string, names []string, field func(key string)) {
	switch d.peek() {
	case '{':
	case 'n':
		d.literal("null")
		return
	default:
		d.mismatch(want)
		return
	}
	outer, outerField := d.obj, d.field
	var seen uint32
	next := 0
	for more := d.open('}'); more; more = d.more('}') {
		tok, esc := d.key()
		i := next
		if esc || i >= len(names) || string(tok[1:len(tok)-1]) != names[i] {
			i = match(names, tok, esc)
		}
		if i < 0 {
			d.skip()
			continue
		}
		next = i + 1
		d.obj, d.field = want, names[i]
		if seen&(1<<i) != 0 {
			d.typeErr("key repeated at byte %d", d.off)
		}
		seen |= 1 << i
		field(names[i])
	}
	d.obj, d.field = outer, outerField
}

// match returns the index in names of the key literal tok (esc: it
// holds escapes), or -1.
func match(names []string, tok []byte, esc bool) int {
	k := tok[1 : len(tok)-1]
	if esc {
		k, _ = sim.UnquoteJSON(tok) // str has validated tok
	}
	for i, n := range names {
		if string(k) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(k, []byte(n)) {
			return i
		}
	}
	return -1
}

func (d *decoder) int(dst *int) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		tok := d.number()
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			d.typeErr("number %s at byte %d is not an int", tok, d.off-len(tok))
			return
		}
		*dst = int(v)
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch("int")
	}
}

func (d *decoder) uint(dst *uint64) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		tok := d.number()
		v, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil {
			d.typeErr("number %s at byte %d is not a uint64", tok, d.off-len(tok))
			return
		}
		*dst = v
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch("uint64")
	}
}

func (d *decoder) bool(dst *bool) {
	switch d.peek() {
	case 't':
		d.literal("true")
		*dst = true
	case 'f':
		d.literal("false")
		*dst = false
	case 'n':
		d.literal("null")
	default:
		d.mismatch("bool")
	}
}

// time decodes a sim.Time in its wire form (sim.ParseTimeJSON, which
// also reads null as 0 — what Time.UnmarshalJSON does). A plain
// "<number><unit>" string takes a one-pass fast path (fastTime).
func (d *decoder) time(dst *sim.Time) {
	if t, n := fastTime(d.data[d.off:]); n > 0 {
		*dst = t
		d.off += n
		return
	}
	start := d.off
	d.skip()
	t, err := sim.ParseTimeJSON(d.data[start:d.off])
	if err != nil {
		d.typeErr("byte %d: %w", start, err)
		return
	}
	*dst = t
}

// fastTime reads a duration string that is one number — decimal
// digits, optionally a point and more digits — and one of the units ns,
// us, µs (U+00B5), ms or s, closed by its quote, and returns its value
// and length in bytes. A fraction must be whole in nanoseconds (at most
// 3 digits for µs, 6 for ms, 9 for s, none for ns): time.ParseDuration
// scales such a fraction by a power of ten exactly, as the integer
// arithmetic here does. fastTime returns n = 0 for every other input —
// a sign, an escape, another unit, several components, a finer
// fraction, or a value at or near the int64 limit — which the general
// path then reads (and accepts or rejects) as time.ParseDuration does.
func fastTime(b []byte) (t sim.Time, n int) {
	if len(b) < 2 || b[0] != '"' {
		return 0, 0
	}
	i := 1
	var v uint64
	for ; i < len(b) && isDigit(b[i]); i++ {
		if v > (math.MaxInt64-9)/10 {
			return 0, 0
		}
		v = v*10 + uint64(b[i]-'0')
	}
	if i == 1 {
		return 0, 0
	}
	var frac, scale uint64 = 0, 1
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && isDigit(b[i]); i++ {
			if scale == 1e9 {
				return 0, 0
			}
			frac, scale = frac*10+uint64(b[i]-'0'), scale*10
		}
		if scale == 1 {
			return 0, 0
		}
	}
	var unit uint64
	switch u := b[i:]; {
	case len(u) >= 3 && u[0] == 'n' && u[1] == 's' && u[2] == '"':
		unit, i = 1, i+2
	case len(u) >= 3 && u[0] == 'u' && u[1] == 's' && u[2] == '"':
		unit, i = 1e3, i+2
	case len(u) >= 4 && u[0] == 0xc2 && u[1] == 0xb5 && u[2] == 's' && u[3] == '"':
		unit, i = 1e3, i+3
	case len(u) >= 3 && u[0] == 'm' && u[1] == 's' && u[2] == '"':
		unit, i = 1e6, i+2
	case len(u) >= 2 && u[0] == 's' && u[1] == '"':
		unit, i = 1e9, i+1
	default:
		return 0, 0
	}
	if unit%scale != 0 || v > (math.MaxInt64-unit)/unit {
		return 0, 0
	}
	return sim.Time(v*unit + frac*(unit/scale)), i + 1
}

// pool is a list decoder's per-element-type backing store: each list
// is decoded straight into the rest of the current chunk, then carved
// from it at its exact length, so a snapshot's thousands of short
// lists share a few allocations.
type pool[T any] struct {
	free  []T
	chunk int // carve's chunk size for this element type
}

// list decodes a JSON array into *dst, calling elem on each zeroed
// element in turn: null sets nil and [] an empty non-nil slice, as in
// encoding/json. Lists of one element type must not nest.
func list[T any](d *decoder, dst *[]T, p *pool[T], want string, elem func(*T)) {
	switch d.peek() {
	case '[':
	case 'n':
		d.literal("null")
		*dst = nil
		return
	default:
		d.mismatch(want)
		return
	}
	n := 0
	for more := d.open(']'); more; more = d.more(']') {
		if n == len(p.free) {
			// The list outgrew its chunk: move it to a larger one.
			grown := make([]T, max(2*n, p.chunk))
			copy(grown, p.free[:n])
			p.free = grown
		}
		elem(&p.free[n])
		n++
	}
	if n == 0 {
		*dst = []T{}
		return
	}
	*dst = carve(&p.free, n, p.chunk)
}
