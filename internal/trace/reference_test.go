package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// The byte-at-a-time binary entry decoder the window decoder replaced.
// It reads every varint through binary.ReadUvarint over a posReader, so
// its results and errors are what the format defines; the window
// decoder must agree with it on any input.

// decodeRef is Decode built on decodeEntryRef.
func decodeRef(r io.Reader) (*Trace, error) {
	pr := &posReader{br: bufio.NewReader(r)}
	tr, n, err := decodeBinaryHeader(pr)
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

// checkMatchesReference decodes data with the window decoder (batch
// and Next) and with the reference, under every reader shape, and
// requires the same trace or the same error at the same position.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	for _, shape := range readerShapes {
		want, wantErr := decodeRef(shape.wrap(bytes.NewReader(data)))
		for name, decode := range map[string]func(io.Reader) (*Trace, error){"Decode": Decode, "Next": decodeNext} {
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
				if pe != nil && (pe.Entry != wpe.Entry || pe.Offset != wpe.Offset) {
					t.Fatalf("%s/%s: position: reference entry %d at %d, window entry %d at %d",
						shape.name, name, wpe.Entry, wpe.Offset, pe.Entry, pe.Offset)
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

// referenceSeeds are the inputs the differential must cover: a trace
// past the 4 KiB buffer, the last entry cut at every byte, overflowing
// varints (eleven bytes; ten continuation bytes at end of input; a
// tenth byte above 1), an invalid op, and a declared count above the
// real one.
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
	seeds := [][]byte{full, large.Bytes(), nil, []byte("CAFA")}
	for cut := len(head) + 1 + len(lastless); cut < len(full); cut++ {
		seeds = append(seeds, full[:cut])
	}
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
