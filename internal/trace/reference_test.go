package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// The byte-at-a-time binary decoder the window decoder replaced, header
// and entries. It reads every varint through binary.ReadUvarint and
// every string through io.ReadFull over a posReader, so its results and
// errors are what the format defines; the window decoder must agree
// with it on any input.

// byteReader is what the binary header helpers need: varints read
// byte-at-a-time, strings in bulk.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// posReader counts the bytes the binary header helpers consume from
// the wrapped buffered reader, so the entry section's absolute offset
// is known. It sits above bufio, so counting costs one add per read
// and no extra copying.
type posReader struct {
	br *bufio.Reader
	n  int64
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.n++
	}
	return b, err
}

func (p *posReader) Read(buf []byte) (int, error) {
	n, err := p.br.Read(buf)
	p.n += int64(n)
	return n, err
}

// decodeRef is Decode built on decodeHeaderRef and decodeEntryRef.
func decodeRef(r io.Reader) (*Trace, error) {
	pr := &posReader{br: bufio.NewReader(r)}
	tr, n, err := decodeHeaderRef(pr)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		tr.Entries = make([]Entry, 0, min(n, 1<<20))
	}
	for i := 0; i < n; i++ {
		start := pr.n
		e, err := decodeEntryRef(pr)
		if err != nil {
			return nil, &PosError{Entry: i, Offset: start, Err: err}
		}
		tr.Entries = append(tr.Entries, e)
	}
	tr.StreamLen = 0
	return tr, nil
}

func decodeEntryRef(br byteReader) (Entry, error) {
	var e Entry
	op, err := br.ReadByte()
	if err != nil {
		return e, err
	}
	e.Op = Op(op)
	if !e.Op.Valid() {
		return e, fmt.Errorf("invalid op %d", op)
	}
	task, err := getUvarint(br)
	if err != nil {
		return e, err
	}
	e.Task = TaskID(task)
	mask, err := getUvarint(br)
	if err != nil {
		return e, err
	}
	e.External = mask&fExternal != 0
	read := func(bit uint64) (uint64, error) {
		if mask&bit == 0 {
			return 0, nil
		}
		return getUvarint(br)
	}
	var v uint64
	if v, err = read(fTarget); err != nil {
		return e, err
	}
	e.Target = TaskID(v)
	if v, err = read(fQueue); err != nil {
		return e, err
	}
	e.Queue = QueueID(v)
	if mask&fDelay != 0 {
		if e.Delay, err = getVarint(br); err != nil {
			return e, err
		}
	}
	if v, err = read(fMonitor); err != nil {
		return e, err
	}
	e.Monitor = MonitorID(v)
	if v, err = read(fLock); err != nil {
		return e, err
	}
	e.Lock = LockID(v)
	if v, err = read(fListener); err != nil {
		return e, err
	}
	e.Listener = ListenerID(v)
	if v, err = read(fVar); err != nil {
		return e, err
	}
	e.Var = VarID(v)
	if v, err = read(fValue); err != nil {
		return e, err
	}
	e.Value = ObjID(v)
	if v, err = read(fTxn); err != nil {
		return e, err
	}
	e.Txn = TxnID(v)
	if v, err = read(fPC); err != nil {
		return e, err
	}
	e.PC = PC(v)
	if v, err = read(fTargetPC); err != nil {
		return e, err
	}
	e.TargetPC = PC(v)
	if v, err = read(fBranch); err != nil {
		return e, err
	}
	e.Branch = BranchKind(v)
	if v, err = read(fMethod); err != nil {
		return e, err
	}
	e.Method = MethodID(v)
	if mask&fTime != 0 {
		if e.Time, err = getVarint(br); err != nil {
			return e, err
		}
	}
	return e, nil
}

// decodeHeaderRef reads magic, version, the task table, the name
// tables, and the declared entry count. The returned trace has no
// Entries; StreamLen carries the declared count.
func decodeHeaderRef(br byteReader) (*Trace, int, error) {
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, 0, fmt.Errorf("trace: decode: %w", err)
	}
	if string(mg[:]) != magic {
		return nil, 0, errors.New("trace: decode: bad magic")
	}
	ver, err := getUvarint(br)
	if err != nil {
		return nil, 0, err
	}
	if ver != formatVersion {
		return nil, 0, fmt.Errorf("trace: decode: unsupported version %d", ver)
	}
	ntasks, err := getUvarint(br)
	if err != nil {
		return nil, 0, err
	}
	// The records go to a slice first so the map is sized from the
	// records actually read, not from a count a hostile header states.
	// The map finds a repeated ID; the trace holds its records sorted.
	tasks := make([]TaskInfo, 0, min(ntasks, maxPrealloc))
	for i := uint64(0); i < ntasks; i++ {
		var ti TaskInfo
		id, err := getUvarint(br)
		if err != nil {
			return nil, 0, err
		}
		kind, err := getUvarint(br)
		if err != nil {
			return nil, 0, err
		}
		name, err := getString(br)
		if err != nil {
			return nil, 0, err
		}
		looper, err := getUvarint(br)
		if err != nil {
			return nil, 0, err
		}
		queue, err := getUvarint(br)
		if err != nil {
			return nil, 0, err
		}
		proc, err := getVarint(br)
		if err != nil {
			return nil, 0, err
		}
		ti.ID = TaskID(id)
		ti.Kind = TaskKind(kind)
		ti.Name = name
		ti.Looper = TaskID(looper)
		ti.Queue = QueueID(queue)
		ti.Proc = int32(proc)
		tasks = append(tasks, ti)
	}
	seen := make(map[TaskID]TaskInfo, len(tasks))
	for _, ti := range tasks {
		if _, dup := seen[ti.ID]; dup {
			return nil, 0, fmt.Errorf("trace: decode: duplicate task %d", ti.ID)
		}
		seen[ti.ID] = ti
	}
	tr := &Trace{}
	for _, ti := range seen {
		tr.Tasks = append(tr.Tasks, ti)
	}
	slices.SortFunc(tr.Tasks, func(a, b TaskInfo) int { return cmp.Compare(a.ID, b.ID) })
	if tr.Fields, err = getNameTable[FieldID](br, "fields"); err != nil {
		return nil, 0, err
	}
	if tr.Methods, err = getNameTable[MethodID](br, "methods"); err != nil {
		return nil, 0, err
	}
	if tr.Queues, err = getNameTable[QueueID](br, "queues"); err != nil {
		return nil, 0, err
	}

	n, err := getUvarint(br)
	if err != nil {
		return nil, 0, err
	}
	if n > math.MaxInt32 {
		return nil, 0, fmt.Errorf("trace: decode: absurd entry count %d", n)
	}
	tr.StreamLen = int(n)
	return tr, int(n), nil
}

func getUvarint(br io.ByteReader) (uint64, error) {
	return binary.ReadUvarint(br)
}

func getVarint(br io.ByteReader) (int64, error) {
	return binary.ReadVarint(br)
}

func getString(br byteReader) (string, error) {
	n, err := getUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: decode: absurd string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// getNameTable reads one name table. The map is presized from the
// stated size, capped as every decode preallocation is.
func getNameTable[K ~uint32](br byteReader, section string) (map[K]string, error) {
	n, err := getUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("trace: decode: absurd table size %d", n)
	}
	m := make(map[K]string, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		k, err := getUvarint(br)
		if err != nil {
			return nil, err
		}
		v, err := getString(br)
		if err != nil {
			return nil, err
		}
		if _, dup := m[K(k)]; dup {
			return nil, fmt.Errorf("trace: decode: %s table: duplicate id %d", section, K(k))
		}
		m[K(k)] = v
	}
	return m, nil
}

// decodeNext is Decode through StreamDecoder.Next.
func decodeNext(r io.Reader) (*Trace, error) {
	d, err := newBinaryStream(asBufio(r))
	if err != nil {
		return nil, err
	}
	tr := d.Header()
	for {
		var e Entry
		if err := d.Next(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		tr.Entries = append(tr.Entries, e)
	}
	tr.StreamLen = 0
	return tr, nil
}

// readerShapes wrap the input the ways a caller's reader may deliver
// it: whole, a byte per Read, and a one-shot error after the first
// Read (the decoder must report it where a byte reader would hit it).
var readerShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"timeout", iotest.TimeoutReader},
}

// checkMatchesReference decodes data with the window decoder (batch,
// Next, and DecodeAuto's sniffing entry point) and with the reference,
// under every reader shape, and requires the same trace or the same
// error at the same position. DecodeAuto reads text as text, so on
// text its reference is DecodeText under the same shape.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	text := bytes.HasPrefix(data, []byte(textMagic))
	for _, shape := range readerShapes {
		binWant, binErr := decodeRef(shape.wrap(bytes.NewReader(data)))
		for name, decode := range map[string]func(io.Reader) (*Trace, error){"Decode": Decode, "Next": decodeNext, "DecodeAuto": DecodeAuto} {
			want, wantErr := binWant, binErr
			if name == "DecodeAuto" && text {
				want, wantErr = DecodeText(shape.wrap(bytes.NewReader(data)))
			}
			got, err := decode(shape.wrap(bytes.NewReader(data)))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s/%s: error disagreement: reference %v, window %v", shape.name, name, wantErr, err)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s/%s: different errors:\n  reference: %v\n  window:    %v", shape.name, name, wantErr, err)
				}
				var pe, wpe *PosError
				if errors.As(err, &pe) != errors.As(wantErr, &wpe) {
					t.Fatalf("%s/%s: PosError disagreement: reference %T, window %T", shape.name, name, wantErr, err)
				}
				if pe != nil && (pe.Entry != wpe.Entry || pe.Offset != wpe.Offset || pe.Line != wpe.Line) {
					t.Fatalf("%s/%s: position: reference entry %d at %d line %d, window entry %d at %d line %d",
						shape.name, name, wpe.Entry, wpe.Offset, wpe.Line, pe.Entry, pe.Offset, pe.Line)
				}
				continue
			}
			if len(got.Entries) == 0 {
				got.Entries = want.Entries // nil-vs-empty: both mean no entries
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: decoded traces differ", shape.name, name)
			}
		}
	}
}

// largeSeedTrace repeats the seed trace's entries past bufio's 4 KiB
// buffer, with multi-byte operands, so entries straddle refills.
func largeSeedTrace() *Trace {
	seed := fuzzSeedTrace()
	tr := cloneTables(seed)
	for r := 0; r < 80; r++ {
		for _, e := range seed.Entries {
			e.Time += int64(r) << 20
			e.PC += PC(r * 300)
			tr.Append(e)
		}
	}
	return tr
}

// binaryParts splits tr's binary encoding into the header before the
// entry count and the entry section after it.
func binaryParts(t testing.TB, tr *Trace) (head, entries []byte) {
	t.Helper()
	var full, hdr bytes.Buffer
	if err := tr.Encode(&full); err != nil {
		t.Fatal(err)
	}
	if err := cloneTables(tr).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	head = hdr.Bytes()[:hdr.Len()-1] // drop the zero count
	countLen := len(binary.AppendUvarint(nil, uint64(len(tr.Entries))))
	return head, full.Bytes()[len(head)+countLen:]
}

// withCount assembles a binary trace from a header, a declared entry
// count, and raw entry bytes.
func withCount(head []byte, count int, entries ...[]byte) []byte {
	out := append([]byte(nil), head...)
	out = binary.AppendUvarint(out, uint64(count))
	for _, e := range entries {
		out = append(out, e...)
	}
	return out
}

// rawHeader is a binary or text header as lists, so it can declare an
// ID twice, which a Trace's maps cannot. Its entry count is zero.
type rawHeader struct {
	tasks  []TaskInfo
	fields []uint32 // field IDs, each named "f"
}

func (h rawHeader) binary() []byte {
	b := binary.AppendUvarint([]byte(magic), formatVersion)
	b = binary.AppendUvarint(b, uint64(len(h.tasks)))
	for _, ti := range h.tasks {
		b = binary.AppendUvarint(b, uint64(ti.ID))
		b = binary.AppendUvarint(b, uint64(ti.Kind))
		b = binary.AppendUvarint(b, uint64(len(ti.Name)))
		b = append(b, ti.Name...)
		b = binary.AppendUvarint(b, uint64(ti.Looper))
		b = binary.AppendUvarint(b, uint64(ti.Queue))
		b = binary.AppendVarint(b, int64(ti.Proc))
	}
	b = binary.AppendUvarint(b, uint64(len(h.fields)))
	for _, id := range h.fields {
		b = binary.AppendUvarint(b, uint64(id))
		b = append(b, 1, 'f')
	}
	return append(b, 0, 0, 0) // no methods, no queues, no entries
}

func (h rawHeader) text() string {
	s := fmt.Sprintf("%s %d\ntasks %d\n", textMagic, textVersion, len(h.tasks))
	for _, ti := range h.tasks {
		s += fmt.Sprintf("task %d kind=%d looper=%d queue=%d proc=%d %q\n", ti.ID, ti.Kind, ti.Looper, ti.Queue, ti.Proc, ti.Name)
	}
	s += fmt.Sprintf("fields %d\n", len(h.fields))
	for _, id := range h.fields {
		s += fmt.Sprintf("%d \"f\"\n", id)
	}
	return s + "methods 0\nqueues 0\nentries 0\n"
}

// duplicateHeaders declare a task twice and a field ID twice; each
// names the text of the error both formats report.
var duplicateHeaders = []struct {
	h    rawHeader
	want string
}{
	{rawHeader{tasks: []TaskInfo{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}, {ID: 1, Name: "c"}}}, "duplicate task 1"},
	{rawHeader{tasks: []TaskInfo{{ID: 1, Name: "a"}}, fields: []uint32{3, 7, 7}}, "fields table: duplicate id 7"},
}

// outOfOrderHeaders declare their tasks out of ID order: once with
// every ID distinct, which decodes to the records sorted by ID, and
// once repeating two different IDs, where the repeat reported is the
// first in record order (task 5, the third record, on line 5 of the
// text) and not the lowest ID repeated. want is the error text both
// formats report, as in duplicateHeaders, or "" for none.
var outOfOrderHeaders = []struct {
	h        rawHeader
	want     string
	wantLine int
}{
	{rawHeader{tasks: []TaskInfo{{ID: 9, Name: "c"}, {ID: 2, Name: "a"}, {ID: 5, Name: "b", Kind: KindEvent, Looper: 2}, {ID: 1}}}, "", 0},
	{rawHeader{tasks: []TaskInfo{{ID: 5, Name: "a"}, {ID: 9, Name: "b"}, {ID: 5, Name: "c"}, {ID: 3, Name: "d"}, {ID: 3, Name: "e"}}}, "duplicate task 5", 5},
}

// TestOutOfOrderHeaders decodes each out-of-order header in both wire
// formats, through the format's own decoder and through DecodeAuto,
// under every reader shape.
func TestOutOfOrderHeaders(t *testing.T) {
	for i, c := range outOfOrderHeaders {
		sorted := slices.Clone(c.h.tasks)
		slices.SortStableFunc(sorted, func(a, b TaskInfo) int { return cmp.Compare(a.ID, b.ID) })
		for _, shape := range readerShapes {
			for _, run := range []struct {
				name   string
				decode func(io.Reader) (*Trace, error)
				data   []byte
				want   string
			}{
				{"Decode", Decode, c.h.binary(), "trace: decode: " + c.want},
				{"DecodeAuto/binary", DecodeAuto, c.h.binary(), "trace: decode: " + c.want},
				{"DecodeText", DecodeText, []byte(c.h.text()), fmt.Sprintf("trace: decode text: line %d: %s", c.wantLine, c.want)},
				{"DecodeAuto/text", DecodeAuto, []byte(c.h.text()), fmt.Sprintf("trace: decode text: line %d: %s", c.wantLine, c.want)},
			} {
				tr, err := run.decode(shape.wrap(bytes.NewReader(run.data)))
				switch {
				case c.want == "" && err != nil:
					t.Errorf("%d/%s/%s: %v", i, shape.name, run.name, err)
				case c.want == "" && !reflect.DeepEqual(tr.Tasks, sorted):
					t.Errorf("%d/%s/%s: tasks %+v, want %+v", i, shape.name, run.name, tr.Tasks, sorted)
				case c.want != "" && (err == nil || err.Error() != run.want):
					t.Errorf("%d/%s/%s: error %v, want %q", i, shape.name, run.name, err, run.want)
				}
			}
		}
	}
}

// TestDuplicateHeaderIDs feeds one logical header through both wire
// formats: each rejects a task or name-table ID declared twice.
func TestDuplicateHeaderIDs(t *testing.T) {
	for _, c := range duplicateHeaders {
		if _, err := Decode(bytes.NewReader(c.h.binary())); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("binary: error %v, want %q", err, c.want)
		}
		if _, err := DecodeText(strings.NewReader(c.h.text())); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("text: error %v, want %q", err, c.want)
		}
		// Without the duplicate both decode.
		ok := c.h
		ok.tasks, ok.fields = ok.tasks[:1], ok.fields[:min(len(ok.fields), 1)]
		if _, err := Decode(bytes.NewReader(ok.binary())); err != nil {
			t.Errorf("binary without the duplicate: %v", err)
		}
		if _, err := DecodeText(strings.NewReader(ok.text())); err != nil {
			t.Errorf("text without the duplicate: %v", err)
		}
	}
}

// referenceSeeds are the inputs the differential must cover: a trace
// past the 4 KiB buffer, every prefix of a header, a header string
// longer than bufio's buffer and cuts inside it, headers declaring an
// ID twice, headers declaring tasks out of ID order (binary and text),
// header varints across window edges, the last entry cut at
// every byte, overflowing varints (eleven bytes; ten continuation
// bytes at end of input; a tenth byte above 1), an invalid op, and a
// declared count above the real one.
func referenceSeeds(t testing.TB) [][]byte {
	seed := fuzzSeedTrace()
	head, ents := binaryParts(t, seed)
	n := len(seed.Entries)
	full := withCount(head, n, ents)
	var large bytes.Buffer
	if err := largeSeedTrace().Encode(&large); err != nil {
		t.Fatal(err)
	}
	_, lastless := binaryParts(t, &Trace{Tasks: seed.Tasks, Fields: seed.Fields, Methods: seed.Methods, Queues: seed.Queues, Entries: seed.Entries[:n-1]})
	seeds := [][]byte{full, large.Bytes()}
	for cut := 0; cut <= len(head); cut++ {
		seeds = append(seeds, full[:cut])
	}
	for cut := len(head) + 1 + len(lastless); cut < len(full); cut++ {
		seeds = append(seeds, full[:cut])
	}
	longName := fuzzSeedTrace()
	longName.DeclareTask(TaskInfo{ID: 2, Kind: KindThread, Name: strings.Repeat("w", 5000), Proc: 1})
	var long bytes.Buffer
	if err := longName.Encode(&long); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(long.Bytes(), []byte("www"))
	seeds = append(seeds, long.Bytes(), long.Bytes()[:at], long.Bytes()[:at+3000], long.Bytes()[:at+4999])
	for _, c := range duplicateHeaders {
		seeds = append(seeds, c.h.binary())
	}
	for _, c := range outOfOrderHeaders {
		seeds = append(seeds, c.h.binary(), []byte(c.h.text()))
	}
	// Five-byte IDs in every task field, so header varints straddle
	// the windows the header is read through.
	wide := New()
	for k := range 64 {
		id := TaskID(0xFFFFFF00 + k)
		wide.DeclareTask(TaskInfo{ID: id, Kind: KindEvent, Name: "e", Looper: 0xFFFFFFFE, Queue: 1 << 30, Proc: -1 << 30})
	}
	var wideEnc bytes.Buffer
	if err := wide.Encode(&wideEnc); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, wideEnc.Bytes(),
		binary.AppendUvarint([]byte{'C', 'A', 'F', 'A', formatVersion, 1, 1, 0}, 1<<63)) // string length past int64
	cont := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)
	op := byte(OpRead)
	seeds = append(seeds,
		withCount(head, 2, ents[:3], []byte{op}, cont, []byte{0x01}),                                   // eleven-byte task varint
		withCount(head, 1, []byte{op}, cont),                                                           // ten continuation bytes, then EOF
		withCount(head, 1, []byte{op, 0x01}, binary.AppendUvarint(nil, fTime), cont[:9], []byte{0x02}), // tenth byte above 1
		withCount(head, 2, ents[:3], []byte{byte(opMax)}),                                              // invalid op
		withCount(head, 1, []byte{200, 1, 0}),                                                          // invalid op, high byte
		withCount(head, n+3, ents),                                                                     // declared count too high
		withCount(head, n+1, ents, []byte{op, 0x81}),                                                   // EOF inside a varint
	)
	return seeds
}

// FuzzDecodeMatchesReference proves the window decoder agrees with the
// byte-at-a-time reference on arbitrary bytes: the same entries, or
// the same error text with the same PosError entry and offset.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkMatchesReference)
}

// TestDecodeMatchesReferenceSeeds runs the differential on the seed
// corpus under plain `go test`.
func TestDecodeMatchesReferenceSeeds(t *testing.T) {
	for i, s := range referenceSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkMatchesReference(t, s) })
	}
}
