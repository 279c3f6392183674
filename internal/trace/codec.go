package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"

	"cafa/internal/obs"
)

// Codec observability (internal/obs): bytes and entries written by
// the binary and text encoders (trace emission volume). The counting
// wrapper sits under bufio, so the hot append path is untouched.
var (
	cEncodedTraces  = obs.NewCounter("trace_encoded_traces_total")
	cEncodedEntries = obs.NewCounter("trace_encoded_entries_total")
	cEncodedBytes   = obs.NewCounter("trace_encoded_bytes_total")
)

// countingWriter counts bytes flowing to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Binary trace format ("logger device" format):
//
//	magic "CAFA" | version uvarint | task table | name tables | entry count | entries
//
// Every integer is an unsigned varint; signed quantities (Time, Delay)
// use zigzag encoding. Each entry is an op byte, a field-presence
// bitmask, then the present fields in field order. The format is
// self-contained: a decoded trace compares equal to the encoded one.

const (
	magic         = "CAFA"
	formatVersion = 1
)

// Field-presence bits, in encoding order.
const (
	fTarget = 1 << iota
	fQueue
	fDelay
	fExternal
	fMonitor
	fLock
	fListener
	fVar
	fValue
	fTxn
	fPC
	fTargetPC
	fBranch
	fMethod
	fTime

	// valuedFields are the bits whose field carries a varint.
	valuedFields = fTime<<1 - 1 - fExternal
)

// Encode writes the trace in binary form.
func (tr *Trace) Encode(w io.Writer) error {
	cw := &countingWriter{w: w}
	defer func() {
		cEncodedTraces.Inc()
		cEncodedEntries.Add(int64(len(tr.Entries)))
		cEncodedBytes.Add(cw.n)
	}()
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	putUvarint(bw, formatVersion)

	// Task table.
	putUvarint(bw, uint64(len(tr.Tasks)))
	for _, ti := range tr.Tasks {
		putUvarint(bw, uint64(ti.ID))
		putUvarint(bw, uint64(ti.Kind))
		putString(bw, ti.Name)
		putUvarint(bw, uint64(ti.Looper))
		putUvarint(bw, uint64(ti.Queue))
		putVarint(bw, int64(ti.Proc))
	}
	putNameTable(bw, toU32Map(tr.Fields))
	putNameTable(bw, toU32Map(tr.Methods))
	putNameTable(bw, toU32Map(tr.Queues))

	putUvarint(bw, uint64(len(tr.Entries)))
	for i := range tr.Entries {
		if err := encodeEntry(bw, &tr.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeEntry(bw *bufio.Writer, e *Entry) error {
	if !e.Op.Valid() {
		return fmt.Errorf("trace: encode: invalid op %d", uint8(e.Op))
	}
	if err := bw.WriteByte(byte(e.Op)); err != nil {
		return err
	}
	putUvarint(bw, uint64(e.Task))
	var mask uint64
	if e.Target != 0 {
		mask |= fTarget
	}
	if e.Queue != 0 {
		mask |= fQueue
	}
	if e.Delay != 0 {
		mask |= fDelay
	}
	if e.External {
		mask |= fExternal
	}
	if e.Monitor != 0 {
		mask |= fMonitor
	}
	if e.Lock != 0 {
		mask |= fLock
	}
	if e.Listener != 0 {
		mask |= fListener
	}
	if e.Var != 0 {
		mask |= fVar
	}
	if e.Value != 0 {
		mask |= fValue
	}
	if e.Txn != 0 {
		mask |= fTxn
	}
	if e.PC != 0 {
		mask |= fPC
	}
	if e.TargetPC != 0 {
		mask |= fTargetPC
	}
	if e.Branch != 0 {
		mask |= fBranch
	}
	if e.Method != 0 {
		mask |= fMethod
	}
	if e.Time != 0 {
		mask |= fTime
	}
	putUvarint(bw, mask)
	if mask&fTarget != 0 {
		putUvarint(bw, uint64(e.Target))
	}
	if mask&fQueue != 0 {
		putUvarint(bw, uint64(e.Queue))
	}
	if mask&fDelay != 0 {
		putVarint(bw, e.Delay)
	}
	if mask&fMonitor != 0 {
		putUvarint(bw, uint64(e.Monitor))
	}
	if mask&fLock != 0 {
		putUvarint(bw, uint64(e.Lock))
	}
	if mask&fListener != 0 {
		putUvarint(bw, uint64(e.Listener))
	}
	if mask&fVar != 0 {
		putUvarint(bw, uint64(e.Var))
	}
	if mask&fValue != 0 {
		putUvarint(bw, uint64(e.Value))
	}
	if mask&fTxn != 0 {
		putUvarint(bw, uint64(e.Txn))
	}
	if mask&fPC != 0 {
		putUvarint(bw, uint64(e.PC))
	}
	if mask&fTargetPC != 0 {
		putUvarint(bw, uint64(e.TargetPC))
	}
	if mask&fBranch != 0 {
		putUvarint(bw, uint64(e.Branch))
	}
	if mask&fMethod != 0 {
		putUvarint(bw, uint64(e.Method))
	}
	if mask&fTime != 0 {
		putVarint(bw, e.Time)
	}
	return nil
}

// Decode reads a binary trace written by Encode. It is a collect-all
// wrapper over the streaming decoder; entry-section errors are
// *PosError values with the entry index and byte offset.
func Decode(r io.Reader) (*Trace, error) {
	d, err := newBinaryStream(asBufio(r))
	if err != nil {
		return nil, err
	}
	return collect(d)
}

// newBinaryStream reads the binary header from br: magic, version,
// the task table, the name tables and the declared entry count, which
// the header trace's StreamLen carries. It reads through one window,
// as entries do, refilled whenever what is left of it might not hold
// the next field. The first failed read sets d.err and turns every
// later read into a no-op, so the header tests d.err only where a
// loop or a check depends on what it read.
func newBinaryStream(br *bufio.Reader) (*StreamDecoder, error) {
	d := &StreamDecoder{format: FormatBinary, br: br}
	var w entryWindow
	d.refill(&w, len(magic))
	if len(w.buf) < len(magic) {
		return nil, fmt.Errorf("trace: decode: %w", w.short(len(w.buf) > 0))
	}
	if string(w.buf[:len(magic)]) != magic {
		return nil, errors.New("trace: decode: bad magic")
	}
	w.pos = len(magic)
	if ver := d.uvarint(&w); d.err == nil && ver != formatVersion {
		return nil, fmt.Errorf("trace: decode: unsupported version %d", ver)
	}
	// The records are appended as read; they are sorted, and checked
	// for a repeated ID, only if they do not arrive strictly ascending.
	ntasks := d.uvarint(&w)
	tr := &Trace{Tasks: slices.Grow([]TaskInfo(nil), int(min(ntasks, maxPrealloc)))}
	ascending := true
	for i := uint64(0); i < ntasks && d.err == nil; i++ {
		ti := TaskInfo{
			ID:     TaskID(d.uvarint(&w)),
			Kind:   TaskKind(d.uvarint(&w)),
			Name:   d.str(&w),
			Looper: TaskID(d.uvarint(&w)),
			Queue:  QueueID(d.uvarint(&w)),
			Proc:   int32(unzigzag(d.uvarint(&w))),
		}
		if n := len(tr.Tasks); n > 0 && ti.ID <= tr.Tasks[n-1].ID {
			ascending = false
		}
		tr.Tasks = append(tr.Tasks, ti)
	}
	if !ascending && d.err == nil {
		if dup, id := sortTasks(tr.Tasks); dup >= 0 {
			d.err = fmt.Errorf("trace: decode: duplicate task %d", id)
		}
	}
	tr.Fields = nameTable[FieldID](d, &w, "fields")
	tr.Methods = nameTable[MethodID](d, &w, "methods")
	tr.Queues = nameTable[QueueID](d, &w, "queues")
	n := d.uvarint(&w)
	if d.err == nil && n > math.MaxInt32 {
		d.err = fmt.Errorf("trace: decode: absurd entry count %d", n)
	}
	if d.err != nil {
		return nil, d.err
	}
	d.consume(w.pos)
	tr.StreamLen = int(n)
	d.hdr, d.declared = tr, int(n)
	return d, nil
}

// refill consumes the bytes w has read and makes w a new window of at
// least n bytes, unless the reader fails first. Once it has failed,
// the window is just what bufio still holds, and the saved error
// stands for the bytes past it, as a byte reader would see.
func (d *StreamDecoder) refill(w *entryWindow, n int) {
	d.consume(w.pos)
	*w = entryWindow{}
	if d.rerr == nil {
		w.buf, d.rerr = d.br.Peek(n)
	} else {
		w.buf, _ = d.br.Peek(d.br.Buffered())
	}
	w.rerr = d.rerr
}

// uvarint reads one header varint from w; it returns 0 once d.err is
// set.
func (d *StreamDecoder) uvarint(w *entryWindow) uint64 {
	if d.err != nil {
		return 0
	}
	if len(w.buf)-w.pos < binary.MaxVarintLen64 {
		d.refill(w, maxEntryLen)
	}
	v := w.uvarint()
	d.err = w.fail
	return v
}

// str reads one length-prefixed header string into a builder grown to
// its length, so it costs one allocation: straight out of the window
// when the window holds it, else a window at a time, which reads
// through a string longer than bufio's buffer.
func (d *StreamDecoder) str(w *entryWindow) string {
	n := d.uvarint(w)
	if d.err == nil && n > 1<<20 {
		d.err = fmt.Errorf("trace: decode: absurd string length %d", n)
	}
	if d.err != nil {
		return ""
	}
	left := int(n)
	var sb strings.Builder
	sb.Grow(left)
	for {
		k := min(left, len(w.buf)-w.pos)
		sb.Write(w.buf[w.pos : w.pos+k])
		w.pos += k
		left -= k
		if left == 0 {
			return sb.String()
		}
		d.refill(w, min(left, d.br.Size()))
		if len(w.buf) == 0 {
			d.err = w.short(sb.Len() > 0)
			return ""
		}
	}
}

// nameTable reads one name table. The map is presized from the stated
// size, capped as every decode preallocation is.
func nameTable[K ~uint32](d *StreamDecoder, w *entryWindow, section string) map[K]string {
	n := d.uvarint(w)
	if d.err == nil && n > 1<<24 {
		d.err = fmt.Errorf("trace: decode: absurd table size %d", n)
	}
	if d.err != nil {
		return nil
	}
	m := make(map[K]string, min(n, maxPrealloc))
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := K(d.uvarint(w))
		v := d.str(w)
		if _, dup := m[k]; dup && d.err == nil {
			d.err = fmt.Errorf("trace: decode: %s table: duplicate id %d", section, k)
		}
		m[k] = v
	}
	return m
}

// maxEntryLen bounds the bytes one binary entry occupies before it
// decodes or fails: the op byte, the task and mask varints, and one
// varint for each of the 14 valued fields. binary.ReadUvarint gives up
// with an overflow by a varint's tenth byte, so no entry reads more.
const maxEntryLen = 1 + (2+14)*binary.MaxVarintLen64

// errVarintOverflow carries the text binary.ReadUvarint uses.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// entryWindow is a cursor over the bytes bufio's Peek returned for one
// entry or one header field. The first failed read sets fail and turns
// every later read into a no-op, so decodeEntry checks once at the
// end. A read past the window's end fails with what a byte-at-a-time
// reader would have hit there: rerr, the reader's error from Peek,
// with io.EOF turned into io.ErrUnexpectedEOF after a varint's first
// byte.
type entryWindow struct {
	buf  []byte
	pos  int
	rerr error
	fail error
}

// uvarint reads the next varint. After a failure pos stays on the
// byte that failed, so every later read returns 0.
func (w *entryWindow) uvarint() uint64 {
	if p := w.pos; p < len(w.buf) && w.buf[p] < 0x80 {
		w.pos = p + 1
		return uint64(w.buf[p])
	}
	if w.fail != nil {
		return 0
	}
	b := w.buf[w.pos:]
	v, n := binary.Uvarint(b)
	switch {
	case n > 0:
		w.pos += n
		return v
	case n < 0 || len(b) >= binary.MaxVarintLen64:
		// Uvarint reports ten continuation bytes at the end of b as
		// "too short"; ReadUvarint has already overflowed there.
		w.fail = errVarintOverflow
	default:
		w.fail = w.short(len(b) > 0)
	}
	return 0
}

// unzigzag decodes a zigzag-encoded signed value.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// short is the error for a read past the end of the window; mid
// reports whether the varint being read has already consumed a byte.
func (w *entryWindow) short(mid bool) error {
	if w.rerr != nil && w.rerr != io.EOF {
		return w.rerr
	}
	if mid {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// decodeEntry decodes one binary entry from the window into *e, which
// must be zero. On success w.pos is the entry's length in bytes.
func decodeEntry(w *entryWindow, e *Entry) error {
	if len(w.buf) == 0 {
		return w.short(false)
	}
	op := w.buf[0]
	w.pos = 1
	if !Op(op).Valid() {
		return fmt.Errorf("invalid op %d", op)
	}
	e.Op = Op(op)
	e.Task = TaskID(w.uvarint())
	mask := w.uvarint()
	e.External = mask&fExternal != 0
	// The valued fields follow in bit order.
	for m := mask & valuedFields; m != 0; m &= m - 1 {
		x := w.uvarint()
		switch uint64(1) << bits.TrailingZeros64(m) {
		case fTarget:
			e.Target = TaskID(x)
		case fQueue:
			e.Queue = QueueID(x)
		case fDelay:
			e.Delay = unzigzag(x)
		case fMonitor:
			e.Monitor = MonitorID(x)
		case fLock:
			e.Lock = LockID(x)
		case fListener:
			e.Listener = ListenerID(x)
		case fVar:
			e.Var = VarID(x)
		case fValue:
			e.Value = ObjID(x)
		case fTxn:
			e.Txn = TxnID(x)
		case fPC:
			e.PC = PC(x)
		case fTargetPC:
			e.TargetPC = PC(x)
		case fBranch:
			e.Branch = BranchKind(x)
		case fMethod:
			e.Method = MethodID(x)
		case fTime:
			e.Time = unzigzag(x)
		}
	}
	return w.fail
}

// --- varint helpers ---

func putUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck // flushed error surfaces at Flush
}

func putVarint(bw *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	bw.Write(buf[:n]) //nolint:errcheck
}

func putString(bw *bufio.Writer, s string) {
	putUvarint(bw, uint64(len(s)))
	bw.WriteString(s) //nolint:errcheck
}

func toU32Map[K ~uint32](m map[K]string) map[uint32]string {
	out := make(map[uint32]string, len(m))
	for k, v := range m {
		out[uint32(k)] = v
	}
	return out
}

func putNameTable(bw *bufio.Writer, m map[uint32]string) {
	putUvarint(bw, uint64(len(m)))
	// Deterministic order.
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		putUvarint(bw, uint64(k))
		putString(bw, m[k])
	}
}
