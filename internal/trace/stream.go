package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Streaming decode layer. A StreamDecoder yields entries one at a time
// so callers can analyze a trace without materializing Entries; the
// batch Decode/DecodeText/DecodeAuto functions are thin collect-all
// wrappers over it. Decode errors inside the entry section are
// *PosError values carrying the entry index plus a byte offset
// (binary) or line number (text).

// Format identifies the wire encoding of a trace stream.
type Format int

const (
	FormatUnknown Format = iota
	FormatBinary         // magic "CAFA"
	FormatText           // magic "CAFA-TEXT"
)

func (f Format) String() string {
	switch f {
	case FormatBinary:
		return "binary"
	case FormatText:
		return "text"
	}
	return "unknown"
}

// PosError is a decode error with position information. Text-format
// errors render as "trace: decode text: line N: ..." (the historical
// format); binary errors render the entry index and the byte offset
// at which the failing entry starts.
type PosError struct {
	Entry  int   // entry index, -1 when the error is outside the entry section
	Offset int64 // absolute byte offset of the failing entry (binary only)
	Line   int   // 1-based line number (text only, 0 for binary)
	Err    error
}

func (e *PosError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("trace: decode text: line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("trace: decode entry %d at byte %d: %v", e.Entry, e.Offset, e.Err)
}

func (e *PosError) Unwrap() error { return e.Err }

// sniffWindow is how many bytes NewStreamDecoder peeks to identify
// the format. Peeking tolerates short streams: a trace smaller than
// the window (or whose first line is shorter than it) still sniffs
// correctly from whatever bytes are available.
const sniffWindow = 64

// StreamDecoder decodes a trace incrementally: header first, then one
// entry per Next call. Memory use is O(header), not O(trace).
type StreamDecoder struct {
	format   Format
	hdr      *Trace
	declared int
	next     int
	err      error

	br   *bufio.Reader // binary state: header and entries decode from Peek windows
	off  int64         // absolute offset of the next binary byte
	rerr error         // reader error a short window returned
	tx   *textReader   // text state
}

// asBufio reuses rd when it is a *bufio.Reader whose buffer holds a
// whole binary entry; anything else gets a default-size buffer.
func asBufio(rd io.Reader) *bufio.Reader {
	if br, ok := rd.(*bufio.Reader); ok && br.Size() >= maxEntryLen {
		return br
	}
	return bufio.NewReader(rd)
}

// NewStreamDecoder sniffs the format from a peek buffer (no
// consumption) and reads the header: task table, name tables, and the
// declared entry count. Entries are then pulled with Next.
func NewStreamDecoder(rd io.Reader) (*StreamDecoder, error) {
	br := asBufio(rd)
	head, err := br.Peek(sniffWindow)
	if len(head) == 0 && err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err != nil {
		// A stream shorter than the window: Peek has taken the
		// reader's error and bufio will not return it again, so the
		// decoders read the peeked bytes and then that error, as they
		// would have without the sniff.
		br = bufio.NewReader(io.MultiReader(bytes.NewReader(head), errReader{err}))
	}
	if bytes.HasPrefix(head, []byte(textMagic)) {
		return newTextStream(br)
	}
	return newBinaryStream(br)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func newTextStream(br *bufio.Reader) (*StreamDecoder, error) {
	tx := &textReader{br: br}
	hdr, n, err := decodeTextHeader(tx)
	if err != nil {
		return nil, err
	}
	return &StreamDecoder{format: FormatText, hdr: hdr, declared: n, tx: tx}, nil
}

// Format reports the sniffed wire format.
func (d *StreamDecoder) Format() Format { return d.format }

// Header returns the table-only trace: Tasks and name tables filled,
// Entries nil, StreamLen set to the declared entry count so Len()
// reports the full length. The same *Trace is shared with collect-all
// wrappers; callers must not retain it across decoders.
func (d *StreamDecoder) Header() *Trace { return d.hdr }

// Len returns the declared entry count.
func (d *StreamDecoder) Len() int { return d.declared }

// Next decodes the next entry into *e, which must be zero, so a
// caller decodes straight into the entry's final home. It returns
// io.EOF after the declared count has been delivered. Decode failures
// return a *PosError and poison the decoder (subsequent calls repeat
// the error).
func (d *StreamDecoder) Next(e *Entry) error {
	if d.err == nil && d.next >= d.declared {
		d.err = io.EOF
	}
	if d.err != nil {
		return d.err
	}
	var err error
	if d.format == FormatBinary {
		err = d.binaryEntry(e)
	} else {
		err = d.textEntry(e)
	}
	if err != nil {
		d.err = err
		return err
	}
	d.next++
	return nil
}

// consume drops n bytes a window has decoded.
func (d *StreamDecoder) consume(n int) {
	d.br.Discard(n) //nolint:errcheck // the n bytes are buffered
	d.off += int64(n)
}

// binaryEntry decodes one entry from a window of up to maxEntryLen
// bytes and then consumes only the bytes it used. It takes the window
// as refill does, written out here to keep a call off the per-entry
// path.
func (d *StreamDecoder) binaryEntry(e *Entry) error {
	var w entryWindow
	if d.rerr == nil {
		w.buf, d.rerr = d.br.Peek(maxEntryLen)
	} else {
		w.buf, _ = d.br.Peek(d.br.Buffered())
	}
	w.rerr = d.rerr
	if err := decodeEntry(&w, e); err != nil {
		return &PosError{Entry: d.next, Offset: d.off, Err: err}
	}
	d.consume(w.pos)
	return nil
}

// textEntry parses the next entry line.
func (d *StreamDecoder) textEntry(e *Entry) error {
	line, err := d.tx.next()
	if err != nil {
		pe := d.tx.errf("entries: %v", err)
		pe.(*PosError).Entry = d.next
		return pe
	}
	*e, err = parseEntryLine(line)
	if err != nil {
		pe := d.tx.errf("%v", err)
		pe.(*PosError).Entry = d.next
		return pe
	}
	return nil
}

// maxPrealloc caps every allocation sized from a count a trace
// header states, so a hostile header cannot make a tiny input
// allocate much; a larger trace grows past it as it decodes.
const maxPrealloc = 1 << 20

// NextRetained decodes the next entry into a new slot appended to the
// header trace's Entries and returns it. The first call presizes
// Entries from the declared count, capped by maxPrealloc.
func (d *StreamDecoder) NextRetained() (*Entry, error) {
	tr := d.hdr
	if tr.Entries == nil {
		tr.Entries = make([]Entry, 0, min(d.declared, maxPrealloc))
	}
	tr.Entries = append(tr.Entries, Entry{})
	e := &tr.Entries[len(tr.Entries)-1]
	if err := d.Next(e); err != nil {
		tr.Entries = tr.Entries[:len(tr.Entries)-1]
		return nil, err
	}
	return e, nil
}

// collect drains a StreamDecoder into its header trace, producing the
// same *Trace the historical batch decoders returned.
func collect(d *StreamDecoder) (*Trace, error) {
	for d.next < d.declared {
		if _, err := d.NextRetained(); err != nil {
			return nil, err
		}
	}
	d.hdr.StreamLen = 0 // fully materialized; Len() is len(Entries) again
	return d.hdr, nil
}
