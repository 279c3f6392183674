package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// cloneTables copies a trace's header tables without its entries.
func cloneTables(tr *Trace) *Trace {
	c := New()
	c.Tasks = slices.Clone(tr.Tasks)
	for k, v := range tr.Fields {
		c.Fields[k] = v
	}
	for k, v := range tr.Methods {
		c.Methods[k] = v
	}
	for k, v := range tr.Queues {
		c.Queues[k] = v
	}
	return c
}

// nextAll drains a StreamDecoder over rd through Next, returning the
// header trace and the entries in delivery order.
func nextAll(rd io.Reader) (*Trace, []Entry, error) {
	d, err := NewStreamDecoder(rd)
	if err != nil {
		return nil, nil, err
	}
	var entries []Entry
	for {
		var e Entry
		if err := d.Next(&e); err == io.EOF {
			return d.Header(), entries, nil
		} else if err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
	}
}

// TestDecodeStreamMatchesDecode: the streaming decoder delivers the
// same entries, in order, as batch decoding — on both wire formats —
// and its header trace carries the tables and declared length without
// materializing entries.
func TestDecodeStreamMatchesDecode(t *testing.T) {
	seed := fuzzSeedTrace()
	var bin, txt bytes.Buffer
	if err := seed.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := seed.EncodeText(&txt); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{"binary": bin.Bytes(), "text": txt.Bytes()} {
		hdr, got, err := nextAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, seed.Entries) {
			t.Errorf("%s: streamed entries differ from the originals", name)
		}
		if len(hdr.Entries) != 0 {
			t.Errorf("%s: header trace materialized %d entries", name, len(hdr.Entries))
		}
		if hdr.Len() != len(seed.Entries) {
			t.Errorf("%s: header Len() = %d, want %d", name, hdr.Len(), len(seed.Entries))
		}
		if !reflect.DeepEqual(hdr.Tasks, seed.Tasks) {
			t.Errorf("%s: header task table differs", name)
		}
	}
}

// TestStreamDecoderFormatAndEOF covers the decoder surface: sniffed
// format, declared length, and the poisoned io.EOF after the last
// entry.
func TestStreamDecoderFormatAndEOF(t *testing.T) {
	seed := fuzzSeedTrace()
	var bin, txt bytes.Buffer
	if err := seed.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := seed.EncodeText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		enc    []byte
		format Format
	}{
		{bin.Bytes(), FormatBinary},
		{txt.Bytes(), FormatText},
	} {
		d, err := NewStreamDecoder(bytes.NewReader(tc.enc))
		if err != nil {
			t.Fatal(err)
		}
		if d.Format() != tc.format {
			t.Errorf("format = %v, want %v", d.Format(), tc.format)
		}
		if d.Len() != len(seed.Entries) {
			t.Errorf("%v: Len() = %d, want %d", tc.format, d.Len(), len(seed.Entries))
		}
		for i := 0; i < len(seed.Entries); i++ {
			if err := d.Next(&Entry{}); err != nil {
				t.Fatalf("%v: entry %d: %v", tc.format, i, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := d.Next(&Entry{}); err != io.EOF {
				t.Fatalf("%v: after last entry Next() = %v, want io.EOF", tc.format, err)
			}
		}
	}
}

// TestBinaryErrorsCarryOffsets locks the binary position reporting: a
// failure inside the entry section is a *PosError naming the entry
// index and the byte offset where that entry starts.
func TestBinaryErrorsCarryOffsets(t *testing.T) {
	seed := fuzzSeedTrace()
	var full, hdrOnly, one bytes.Buffer
	if err := seed.Encode(&full); err != nil {
		t.Fatal(err)
	}
	if err := cloneTables(seed).Encode(&hdrOnly); err != nil {
		t.Fatal(err)
	}
	ct := cloneTables(seed)
	ct.Entries = seed.Entries[:1]
	if err := ct.Encode(&one); err != nil {
		t.Fatal(err)
	}
	// Entry counts (0, 1, 13) all fit one uvarint byte, so the header
	// is the same length in every encoding and these arithmetic
	// identities hold.
	headerLen := int64(hdrOnly.Len())
	entry1Start := int64(one.Len())

	// Truncated right at the entry section: entry 0 fails at its own
	// start offset.
	_, err := Decode(bytes.NewReader(full.Bytes()[:headerLen]))
	var pe *PosError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PosError, got %T: %v", err, err)
	}
	if pe.Entry != 0 || pe.Offset != headerLen || pe.Line != 0 {
		t.Errorf("PosError = %+v, want entry 0 at byte %d", pe, headerLen)
	}
	wantMsg := fmt.Sprintf("trace: decode entry 0 at byte %d:", headerLen)
	if !strings.HasPrefix(err.Error(), wantMsg) {
		t.Errorf("error %q does not start with %q", err, wantMsg)
	}

	// Truncated one byte into entry 1: the reported offset is entry 1's
	// start, not the truncation point.
	_, err = Decode(bytes.NewReader(full.Bytes()[:entry1Start+1]))
	if !errors.As(err, &pe) {
		t.Fatalf("want *PosError, got %T: %v", err, err)
	}
	if pe.Entry != 1 || pe.Offset != entry1Start {
		t.Errorf("PosError = %+v, want entry 1 at byte %d", pe, entry1Start)
	}

	// The streaming decoder reports the same positions and poisons.
	d, err := NewStreamDecoder(bytes.NewReader(full.Bytes()[:entry1Start]))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Next(&Entry{}); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	err1 := d.Next(&Entry{})
	if !errors.As(err1, &pe) || pe.Entry != 1 || pe.Offset != entry1Start {
		t.Errorf("stream PosError = %v, want entry 1 at byte %d", err1, entry1Start)
	}
	if err2 := d.Next(&Entry{}); err2 != err1 {
		t.Errorf("poisoned decoder returned %v, want the original %v", err2, err1)
	}

	// Header errors are not PosErrors (no entry to blame).
	_, err = Decode(bytes.NewReader(full.Bytes()[:2]))
	if err == nil || errors.As(err, &pe) {
		t.Errorf("header error should not be a PosError: %v", err)
	}
}

// TestTextStreamErrorsCarryEntryAndLine: text-format entry failures
// keep the historical line-numbered message and additionally carry the
// entry index in the PosError.
func TestTextStreamErrorsCarryEntryAndLine(t *testing.T) {
	corrupted := strings.Replace(minimalText, "end task=1", "end task=banana", 1)
	d, err := NewStreamDecoder(strings.NewReader(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Next(&Entry{}); err != nil {
		t.Fatalf("entry 0: %v", err)
	}
	err = d.Next(&Entry{})
	var pe *PosError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PosError, got %T: %v", err, err)
	}
	if pe.Entry != 1 || pe.Line != 9 || pe.Offset != 0 {
		t.Errorf("PosError = %+v, want entry 1 on line 9", pe)
	}
	if !strings.Contains(err.Error(), "line 9") || !strings.Contains(err.Error(), `bad task "banana"`) {
		t.Errorf("message %q lost the historical line format", err)
	}
}

// TestSniffShortInput is the regression for format sniffing on inputs
// shorter than the peek window: a complete trace smaller than
// sniffWindow bytes (necessarily with a first line shorter than it)
// must sniff and decode on both the batch and streaming paths.
func TestSniffShortInput(t *testing.T) {
	tinyText := "CAFA-TEXT 1\ntasks 0\nfields 0\nmethods 0\nqueues 0\nentries 0\n"
	if len(tinyText) >= sniffWindow {
		t.Fatalf("test input is %d bytes; must stay under the %d-byte sniff window", len(tinyText), sniffWindow)
	}
	tr, err := DecodeAuto(strings.NewReader(tinyText))
	if err != nil {
		t.Fatalf("DecodeAuto: %v", err)
	}
	if len(tr.Entries) != 0 || len(tr.Tasks) != 0 {
		t.Errorf("unexpected shape: %+v", tr)
	}
	d, err := NewStreamDecoder(strings.NewReader(tinyText))
	if err != nil {
		t.Fatalf("NewStreamDecoder: %v", err)
	}
	if d.Format() != FormatText || d.Len() != 0 {
		t.Errorf("format = %v len = %d, want text/0", d.Format(), d.Len())
	}
	if err := d.Next(&Entry{}); err != io.EOF {
		t.Errorf("Next() = %v, want io.EOF", err)
	}

	// Same for a binary trace smaller than the window.
	small := New()
	small.DeclareTask(TaskInfo{ID: 1, Kind: KindThread, Name: "T"})
	small.Append(Entry{Task: 1, Op: OpBegin})
	small.Append(Entry{Task: 1, Op: OpEnd, Time: 1})
	var buf bytes.Buffer
	if err := small.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= sniffWindow {
		t.Fatalf("binary input is %d bytes; must stay under the window", buf.Len())
	}
	d, err = NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Format() != FormatBinary || d.Len() != 2 {
		t.Errorf("format = %v len = %d, want binary/2", d.Format(), d.Len())
	}
	got, err := DecodeAuto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, small) {
		t.Error("short binary trace did not round-trip through DecodeAuto")
	}
}

// checkStreamAgrees requires the streaming decoder and DecodeAuto to
// agree on data: the same trace on success, the same error otherwise.
func checkStreamAgrees(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := DecodeAuto(bytes.NewReader(data))
	hdr, entries, err := nextAll(bytes.NewReader(data))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error disagreement: batch %v, stream %v", wantErr, err)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("different errors:\n  batch:  %v\n  stream: %v", wantErr, err)
		}
		return
	}
	got := cloneTables(hdr)
	got.Entries = entries
	if len(entries) == 0 {
		got.Entries = want.Entries // nil-vs-empty: both mean no entries
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded traces differ:\n  batch:  %+v\n  stream: %+v", want, got)
	}
}

// FuzzDecodeStream proves streaming and batch decoding agree on
// arbitrary input. DecodeAuto is itself built on the stream decoder,
// so this guards the collect wrapper and the per-entry Next path
// against drift.
func FuzzDecodeStream(f *testing.F) {
	var bin, txt bytes.Buffer
	if err := fuzzSeedTrace().Encode(&bin); err != nil {
		f.Fatal(err)
	}
	if err := fuzzSeedTrace().EncodeText(&txt); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(txt.Bytes())
	f.Add([]byte("CAFA"))
	f.Add([]byte("CAFA-TEXT 1\n"))
	f.Add([]byte(minimalText))
	f.Add([]byte{})
	f.Fuzz(checkStreamAgrees)
}

// TestFuzzDecodeStreamSeeds runs the agreement property on the seed
// corpus under plain `go test`.
func TestFuzzDecodeStreamSeeds(t *testing.T) {
	var bin, txt bytes.Buffer
	if err := fuzzSeedTrace().Encode(&bin); err != nil {
		t.Fatal(err)
	}
	if err := fuzzSeedTrace().EncodeText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{bin.Bytes(), txt.Bytes(), []byte("CAFA"), []byte(minimalText), nil} {
		checkStreamAgrees(t, data)
	}
}

// TestSniffKeepsReaderError: on a stream shorter than the sniff window
// whose reader fails once after its bytes, DecodeAuto reports the
// reader's error where Decode and DecodeText do, not the io.EOF a
// later read returns.
func TestSniffKeepsReaderError(t *testing.T) {
	c := NewCollector()
	c.DeclareTask(TaskInfo{ID: 1, Kind: KindThread, Name: "T"})
	c.Emit(Entry{Task: 1, Op: OpBegin})
	c.Emit(Entry{Task: 1, Op: OpEnd, Time: 1})
	var bin bytes.Buffer
	if err := c.T.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		data   []byte
		decode func(io.Reader) (*Trace, error)
	}{
		{bin.Bytes()[:bin.Len()-1], Decode},
		{[]byte("CAFA-TEXT 1\ntasks 0\nfields 0\nmethods 0\nqueues 0\nentries 0"), DecodeText},
	} {
		if len(tc.data) >= sniffWindow {
			t.Fatalf("%q: input must stay under the %d-byte sniff window", tc.data, sniffWindow)
		}
		_, want := tc.decode(iotest.TimeoutReader(bytes.NewReader(tc.data)))
		_, got := DecodeAuto(iotest.TimeoutReader(bytes.NewReader(tc.data)))
		if want == nil || !strings.HasSuffix(want.Error(), iotest.ErrTimeout.Error()) || got == nil || got.Error() != want.Error() {
			t.Errorf("%q: DecodeAuto error %v, want %v", tc.data, got, want)
		}
	}
}
