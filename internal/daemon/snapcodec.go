package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"atcsched/internal/sim"
)

// The fleet checkpoint is a compact binary image of a FleetSnapshot in
// an integrity envelope:
//
//	magic   4 bytes  "\x89ATC"
//	format  1 byte   snapFormat
//	length  uint32   body length in bytes, little-endian
//	crc     uint32   CRC-32C (Castagnoli) of the body, little-endian
//	body    the five structs FleetSnapshot → core.Config → NodeSnapshot →
//	        Stats → VMSnapshot, field by field in declaration order
//
// In the body, signed fields (int, sim.Time) are zigzag varints and
// unsigned ones uvarints; a VMSnapshot's Known, Parallel and HasLast
// share one flag byte; each list is preceded by a count, 0 for a nil
// list and len+1 otherwise. SnapshotVersion is the body's first field.
// Every value has exactly one encoding (minimal varints, no unknown
// flag bits, no trailing bytes), so an accepted checkpoint re-encodes
// to the same bytes. The encoder and the decoder each spell the schema
// out with no reflection; a new field goes into both by hand.
//
// The structs' json tags define a second form, the JSON view
// (json.MarshalIndent with a two-space indent), which tests read and
// which version-1 checkpoints written by earlier builds were stored
// in: DecodeSnapshot reads such a file through encoding/json.

const (
	snapMagic  = "\x89ATC"
	snapFormat = 2
	headerLen  = len(snapMagic) + 1 + 4 + 4
)

// VM flag bits.
const (
	flagKnown = 1 << iota
	flagParallel
	flagHasLast
	flagsAll = flagKnown | flagParallel | flagHasLast
)

// The fewest body bytes one list element can take: every field at
// least one byte. They bound a decoded count by the bytes left.
const (
	minNodeBytes = 8 // node, periods, consecDrops, 4 stats, VM count
	minVMBytes   = 9 // id, flags, admin, last, seq, staleRuns, observed, 2 counts
	minTimeBytes = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode renders the snapshot as a checkpoint. A first pass over the
// schema sizes the body exactly, so the checkpoint takes one
// allocation of its own length.
func (s *FleetSnapshot) Encode() ([]byte, error) {
	size := putFleet(nil, headerLen, s)
	if uint64(size-headerLen) > math.MaxUint32 {
		return nil, fmt.Errorf("daemon: snapshot body of %d bytes exceeds the format's 4 GiB", size-headerLen)
	}
	b := make([]byte, size)
	putFleet(b, headerLen, s)
	body := b[headerLen:]
	copy(b, snapMagic)
	b[len(snapMagic)] = snapFormat
	binary.LittleEndian.PutUint32(b[len(snapMagic)+1:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[len(snapMagic)+5:], crc32.Checksum(body, castagnoli))
	return b, nil
}

// The put functions write the body field by field into b from offset n
// on and return the offset after what they wrote; with b nil they
// write nothing and only advance the offset, which sizes the body.

// putUint writes v as a uvarint.
func putUint(b []byte, n int, v uint64) int {
	if b == nil {
		return n + int(uvarintLen[bits.Len64(v)])
	}
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	b[n] = byte(v)
	return n + 1
}

// uvarintLen[k] is the length of a uvarint of k significant bits.
var uvarintLen = func() (l [65]uint8) {
	for k := range l {
		l[k] = uint8(max(1, (k+6)/7))
	}
	return l
}()

func putInt(b []byte, n int, v int64) int { return putUint(b, n, uint64(v<<1)^uint64(v>>63)) }

// putCount writes a list's count: 0 for nil, len+1 otherwise.
func putCount[T any](b []byte, n int, s []T) int {
	if s == nil {
		return putUint(b, n, 0)
	}
	return putUint(b, n, uint64(len(s))+1)
}

func putTimes(b []byte, n int, ts []sim.Time) int {
	n = putCount(b, n, ts)
	for _, t := range ts {
		n = putInt(b, n, int64(t))
	}
	return n
}

func putFleet(b []byte, n int, s *FleetSnapshot) int {
	n = putInt(b, n, int64(s.Version))
	c := &s.Config
	n = putInt(b, n, int64(c.Default))
	n = putInt(b, n, int64(c.MinThreshold))
	n = putInt(b, n, int64(c.Alpha))
	n = putInt(b, n, int64(c.Beta))
	n = putInt(b, n, int64(c.Window))
	n = putUint(b, n, s.Periods)
	n = putUint(b, n, s.Decisions)
	n = putCount(b, n, s.Nodes)
	for i := range s.Nodes {
		nd := &s.Nodes[i]
		n = putInt(b, n, int64(nd.Node))
		n = putUint(b, n, nd.Periods)
		n = putInt(b, n, int64(nd.ConsecDrops))
		n = putUint(b, n, nd.Stats.Retries)
		n = putUint(b, n, nd.Stats.DroppedPeriods)
		n = putUint(b, n, nd.Stats.StaleSamples)
		n = putUint(b, n, nd.Stats.Degraded)
		n = putCount(b, n, nd.VMs)
		for j := range nd.VMs {
			n = putVM(b, n, &nd.VMs[j])
		}
	}
	return n
}

func putVM(b []byte, n int, v *VMSnapshot) int {
	n = putInt(b, n, int64(v.ID))
	var f uint64
	if v.Known {
		f |= flagKnown
	}
	if v.Parallel {
		f |= flagParallel
	}
	if v.HasLast {
		f |= flagHasLast
	}
	n = putUint(b, n, f) // below 0x80: one byte
	n = putInt(b, n, int64(v.Admin))
	n = putInt(b, n, int64(v.Last))
	n = putUint(b, n, v.Seq)
	n = putInt(b, n, int64(v.StaleRuns))
	n = putInt(b, n, int64(v.Observed))
	n = putTimes(b, n, v.Lat)
	return putTimes(b, n, v.Slice)
}

// DecodeSnapshot reads a checkpoint written by Encode and checks its
// envelope and schema version. Input that does not start with the
// magic is read as a version-1 JSON snapshot.
func DecodeSnapshot(data []byte) (*FleetSnapshot, error) {
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		return decodeJSON(data)
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("daemon: snapshot: header is %d bytes, want %d", len(data), headerLen)
	}
	if f := data[len(snapMagic)]; f != snapFormat {
		return nil, fmt.Errorf("daemon: snapshot: format %d, want %d", f, snapFormat)
	}
	body := data[headerLen:]
	if n := binary.LittleEndian.Uint32(data[len(snapMagic)+1:]); uint64(n) != uint64(len(body)) {
		return nil, fmt.Errorf("daemon: snapshot: body is %d bytes, header says %d", len(body), n)
	}
	if crc := binary.LittleEndian.Uint32(data[len(snapMagic)+5:]); crc != crc32.Checksum(body, castagnoli) {
		return nil, errors.New("daemon: snapshot: body checksum mismatch")
	}
	d := decoder{data: body}
	s := d.fleet()
	if d.err == nil && d.off < len(body) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// decodeJSON reads a snapshot in its JSON form, as earlier builds wrote
// it: a version probe, then a full json.Unmarshal. Unknown keys (the
// retired "overflow" count among them) are ignored.
func decodeJSON(data []byte) (*FleetSnapshot, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("daemon: snapshot: %w", err)
	}
	if probe.Version != SnapshotVersion {
		return nil, versionError(probe.Version)
	}
	s := new(FleetSnapshot)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("daemon: snapshot: %w", err)
	}
	return s, nil
}

func versionError(v int) error {
	return fmt.Errorf("daemon: snapshot version %d, want %d", v, SnapshotVersion)
}

// decoder reads a checkpoint body. The first error stops it: every
// later read returns zero and every later count nil, so the walk ends
// within the bytes it has left.
type decoder struct {
	data     []byte
	off      int
	err      error
	vmFree   []VMSnapshot // carve's chunks for the lists
	timeFree []sim.Time
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("daemon: snapshot: byte %d of the body: %s", d.off, msg)
	}
	d.off = len(d.data)
}

// uint reads a uvarint; a one-byte one inline.
func (d *decoder) uint() uint64 {
	if d.off < len(d.data) {
		if c := d.data[d.off]; c < 0x80 {
			d.off++
			return uint64(c)
		}
	}
	return d.uvarint()
}

// uvarint reads a uvarint of any length, rejecting a truncated,
// overlong or non-minimal one (a last byte of 0 could have been left
// off).
func (d *decoder) uvarint() uint64 {
	b := d.data[d.off:]
	var v uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 || i == binary.MaxVarintLen64-1 && c > 1 {
				d.fail("non-minimal or overflowing varint")
				return 0
			}
			d.off += i + 1
			return v
		}
	}
	d.fail("truncated or overlong varint")
	return 0
}

func (d *decoder) int64() int64 {
	u := d.uint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) time() sim.Time { return sim.Time(d.int64()) }

// count reads a list count and reports the list's length and whether
// it is nil. A length that the bytes left could not hold, at minBytes
// per element, is an error.
func (d *decoder) count(minBytes int) (n int, isNil bool) {
	c := d.uint()
	if c == 0 {
		return 0, true
	}
	if c-1 > uint64((len(d.data)-d.off)/minBytes) {
		d.fail(fmt.Sprintf("list of %d elements in %d bytes", c-1, len(d.data)-d.off))
		return 0, true
	}
	return int(c - 1), false
}

func (d *decoder) fleet() *FleetSnapshot {
	s := &FleetSnapshot{Version: d.int()}
	if d.err == nil && s.Version != SnapshotVersion {
		d.err = versionError(s.Version)
		return nil
	}
	c := &s.Config
	c.Default = d.time()
	c.MinThreshold = d.time()
	c.Alpha = d.time()
	c.Beta = d.time()
	c.Window = d.int()
	s.Periods = d.uint()
	s.Decisions = d.uint()
	n, isNil := d.count(minNodeBytes)
	if !isNil {
		s.Nodes = make([]NodeSnapshot, n)
	}
	for i := range s.Nodes {
		d.node(&s.Nodes[i])
	}
	return s
}

func (d *decoder) node(n *NodeSnapshot) {
	n.Node = d.int()
	n.Periods = d.uint()
	n.ConsecDrops = d.int()
	n.Stats.Retries = d.uint()
	n.Stats.DroppedPeriods = d.uint()
	n.Stats.StaleSamples = d.uint()
	n.Stats.Degraded = d.uint()
	n.VMs = list(d, &d.vmFree, vmChunk, minVMBytes)
	for i := range n.VMs {
		d.vm(&n.VMs[i])
	}
}

func (d *decoder) vm(v *VMSnapshot) {
	v.ID = d.int()
	f := d.uint()
	if f&^flagsAll != 0 {
		d.fail("unknown VM flag bits")
	}
	v.Known, v.Parallel, v.HasLast = f&flagKnown != 0, f&flagParallel != 0, f&flagHasLast != 0
	v.Admin = d.time()
	v.Last = d.time()
	v.Seq = d.uint()
	v.StaleRuns = d.int()
	v.Observed = d.int()
	v.Lat = d.times()
	v.Slice = d.times()
}

func (d *decoder) times() []sim.Time {
	ts := list(d, &d.timeFree, timeChunk, minTimeBytes)
	for i := range ts {
		ts[i] = d.time()
	}
	return ts
}

// list reads a list count and carves a zeroed list of that length
// from *free (nil for a nil list, empty for an empty one).
func list[T any](d *decoder, free *[]T, chunk, minBytes int) []T {
	n, isNil := d.count(minBytes)
	switch {
	case isNil:
		return nil
	case n == 0:
		return []T{}
	}
	return carve(free, n, chunk)
}
