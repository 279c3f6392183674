package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text trace format — the lossless, line-oriented sibling of the
// binary codec (WriteText remains the lossy human dump):
//
//	CAFA-TEXT 1
//	tasks <n>
//	task <id> kind=<k> looper=<id> queue=<id> proc=<p> <quoted name>
//	fields <n>
//	<id> <quoted name>
//	methods <n> / queues <n>   (same shape)
//	entries <n>
//	<op> task=<id> [key=value ...]
//
// Zero-valued operands are omitted, keys appear in a fixed order, and
// tables are sorted by id, so encoding is canonical: decode∘encode is
// the identity on well-formed text, exactly like the binary codec.

const (
	textMagic   = "CAFA-TEXT"
	textVersion = 1
)

// EncodeText writes the trace in the lossless text form.
func (tr *Trace) EncodeText(w io.Writer) error {
	cw := &countingWriter{w: w}
	defer func() {
		cEncodedTraces.Inc()
		cEncodedEntries.Add(int64(len(tr.Entries)))
		cEncodedBytes.Add(cw.n)
	}()
	bw := bufio.NewWriter(cw)
	fmt.Fprintf(bw, "%s %d\n", textMagic, textVersion)

	fmt.Fprintf(bw, "tasks %d\n", len(tr.Tasks))
	for _, ti := range tr.Tasks {
		fmt.Fprintf(bw, "task %d kind=%d looper=%d queue=%d proc=%d %s\n",
			ti.ID, ti.Kind, ti.Looper, ti.Queue, ti.Proc, strconv.Quote(ti.Name))
	}
	writeTextTable(bw, "fields", toU32Map(tr.Fields))
	writeTextTable(bw, "methods", toU32Map(tr.Methods))
	writeTextTable(bw, "queues", toU32Map(tr.Queues))

	fmt.Fprintf(bw, "entries %d\n", len(tr.Entries))
	for i := range tr.Entries {
		if err := encodeTextEntry(bw, &tr.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeTextTable(bw *bufio.Writer, section string, m map[uint32]string) {
	fmt.Fprintf(bw, "%s %d\n", section, len(m))
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
		fmt.Fprintf(bw, "%d %s\n", k, strconv.Quote(m[k]))
	}
}

func encodeTextEntry(bw *bufio.Writer, e *Entry) error {
	if !e.Op.Valid() {
		return fmt.Errorf("trace: encode text: invalid op %d", uint8(e.Op))
	}
	fmt.Fprintf(bw, "%s task=%d", e.Op, e.Task)
	// Same presence rule and field order as the binary codec's mask.
	if e.Target != 0 {
		fmt.Fprintf(bw, " target=%d", e.Target)
	}
	if e.Queue != 0 {
		fmt.Fprintf(bw, " queue=%d", e.Queue)
	}
	if e.Delay != 0 {
		fmt.Fprintf(bw, " delay=%d", e.Delay)
	}
	if e.External {
		fmt.Fprint(bw, " ext")
	}
	if e.Monitor != 0 {
		fmt.Fprintf(bw, " monitor=%d", e.Monitor)
	}
	if e.Lock != 0 {
		fmt.Fprintf(bw, " lock=%d", e.Lock)
	}
	if e.Listener != 0 {
		fmt.Fprintf(bw, " listener=%d", e.Listener)
	}
	if e.Var != 0 {
		fmt.Fprintf(bw, " var=%d", uint64(e.Var))
	}
	if e.Value != 0 {
		fmt.Fprintf(bw, " value=%d", e.Value)
	}
	if e.Txn != 0 {
		fmt.Fprintf(bw, " txn=%d", e.Txn)
	}
	if e.PC != 0 {
		fmt.Fprintf(bw, " pc=%d", e.PC)
	}
	if e.TargetPC != 0 {
		fmt.Fprintf(bw, " tpc=%d", e.TargetPC)
	}
	if e.Branch != 0 {
		fmt.Fprintf(bw, " branch=%d", e.Branch)
	}
	if e.Method != 0 {
		fmt.Fprintf(bw, " method=%d", e.Method)
	}
	if e.Time != 0 {
		fmt.Fprintf(bw, " time=%d", e.Time)
	}
	fmt.Fprintln(bw)
	return nil
}

// opByName maps text op names back to codes.
var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := OpInvalid + 1; op < opMax; op++ {
		m[op.String()] = op
	}
	return m
}()

// textReader wraps line-by-line parsing with position reporting.
type textReader struct {
	br   *bufio.Reader
	line int
}

func (r *textReader) next() (string, error) {
	s, err := r.br.ReadString('\n')
	if err == io.EOF && s != "" {
		err = nil // final unterminated line is fine
	}
	if err != nil {
		return "", err
	}
	r.line++
	return strings.TrimSuffix(s, "\n"), nil
}

// errf builds a *PosError at the current line; the rendered message
// keeps the historical "trace: decode text: line N: ..." format.
func (r *textReader) errf(format string, args ...any) error {
	return &PosError{Entry: -1, Line: r.line, Err: fmt.Errorf(format, args...)}
}

// DecodeText reads a trace written by EncodeText. It is a collect-all
// wrapper over the streaming decoder; positioned errors are *PosError
// values carrying the line number.
func DecodeText(rd io.Reader) (*Trace, error) {
	d, err := newTextStream(asBufio(rd))
	if err != nil {
		return nil, err
	}
	return collect(d)
}

// decodeTextHeader reads the magic line, the task table, the name
// tables, and the "entries <n>" count line. The returned trace has no
// Entries; StreamLen carries the declared count.
func decodeTextHeader(r *textReader) (*Trace, int, error) {
	header, err := r.next()
	if err != nil {
		return nil, 0, fmt.Errorf("trace: decode text: %w", err)
	}
	if header != fmt.Sprintf("%s %d", textMagic, textVersion) {
		return nil, 0, fmt.Errorf("trace: decode text: bad header %q", header)
	}
	tr := New()

	ntasks, err := sectionCount(r, "tasks")
	if err != nil {
		return nil, 0, err
	}
	// Records are appended as read. While they arrive ascending a
	// repeated ID is reported at once; once one arrives out of order
	// they are sorted, and checked for a repeat, when the section ends.
	first, ascending := r.line+1, true
	for i := 0; i < ntasks; i++ {
		line, err := r.next()
		if err != nil {
			return nil, 0, r.errf("task table: %v", err)
		}
		ti, err := parseTaskLine(line)
		if err != nil {
			return nil, 0, r.errf("%v", err)
		}
		if n := len(tr.Tasks); n > 0 && ti.ID <= tr.Tasks[n-1].ID {
			if ascending && ti.ID == tr.Tasks[n-1].ID {
				return nil, 0, r.errf("duplicate task %d", ti.ID)
			}
			ascending = false
		}
		tr.Tasks = append(tr.Tasks, ti)
	}
	if !ascending {
		if dup, id := sortTasks(tr.Tasks); dup >= 0 {
			return nil, 0, &PosError{Entry: -1, Line: first + dup, Err: fmt.Errorf("duplicate task %d", id)}
		}
	}
	if err := readTextTable(r, "fields", func(k uint32, v string) { tr.Fields[FieldID(k)] = v }); err != nil {
		return nil, 0, err
	}
	if err := readTextTable(r, "methods", func(k uint32, v string) { tr.Methods[MethodID(k)] = v }); err != nil {
		return nil, 0, err
	}
	if err := readTextTable(r, "queues", func(k uint32, v string) { tr.Queues[QueueID(k)] = v }); err != nil {
		return nil, 0, err
	}

	n, err := sectionCount(r, "entries")
	if err != nil {
		return nil, 0, err
	}
	tr.StreamLen = n
	return tr, n, nil
}

// sectionCount parses a "<section> <n>" line with a sanity bound.
func sectionCount(r *textReader, section string) (int, error) {
	line, err := r.next()
	if err != nil {
		return 0, r.errf("missing %q section: %v", section, err)
	}
	rest, ok := strings.CutPrefix(line, section+" ")
	if !ok {
		return 0, r.errf("want %q section, got %q", section, line)
	}
	n, err := strconv.ParseUint(rest, 10, 32)
	if err != nil || n > 1<<24 {
		return 0, r.errf("bad %s count %q", section, rest)
	}
	return int(n), nil
}

func readTextTable(r *textReader, section string, set func(k uint32, v string)) error {
	n, err := sectionCount(r, section)
	if err != nil {
		return err
	}
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		line, err := r.next()
		if err != nil {
			return r.errf("%s table: %v", section, err)
		}
		idTok, quoted, ok := strings.Cut(line, " ")
		if !ok {
			return r.errf("%s table: malformed line %q", section, line)
		}
		id, err := strconv.ParseUint(idTok, 10, 32)
		if err != nil {
			return r.errf("%s table: bad id %q", section, idTok)
		}
		name, err := strconv.Unquote(quoted)
		if err != nil {
			return r.errf("%s table: bad name %q", section, quoted)
		}
		if seen[uint32(id)] {
			return r.errf("%s table: duplicate id %d", section, id)
		}
		seen[uint32(id)] = true
		set(uint32(id), name)
	}
	return nil
}

func parseTaskLine(line string) (TaskInfo, error) {
	var ti TaskInfo
	q := strings.Index(line, `"`)
	if q < 0 {
		return ti, fmt.Errorf("task line missing quoted name: %q", line)
	}
	toks := strings.Fields(line[:q])
	if len(toks) != 6 || toks[0] != "task" {
		return ti, fmt.Errorf("malformed task line %q", line)
	}
	name, err := strconv.Unquote(line[q:])
	if err != nil {
		return ti, fmt.Errorf("task line: bad name: %v", err)
	}
	ti.Name = name
	id, err := strconv.ParseUint(toks[1], 10, 32)
	if err != nil {
		return ti, fmt.Errorf("task line: bad id %q", toks[1])
	}
	ti.ID = TaskID(id)
	for _, tok := range toks[2:] {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return ti, fmt.Errorf("task line: malformed %q", tok)
		}
		switch key {
		case "kind", "looper", "queue":
			u, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return ti, fmt.Errorf("task line: bad %s %q", key, val)
			}
			switch key {
			case "kind":
				ti.Kind = TaskKind(u)
			case "looper":
				ti.Looper = TaskID(u)
			case "queue":
				ti.Queue = QueueID(u)
			}
		case "proc":
			p, err := strconv.ParseInt(val, 10, 32)
			if err != nil {
				return ti, fmt.Errorf("task line: bad proc %q", val)
			}
			ti.Proc = int32(p)
		default:
			return ti, fmt.Errorf("task line: unknown key %q", key)
		}
	}
	return ti, nil
}

func parseEntryLine(line string) (Entry, error) {
	var e Entry
	toks := strings.Fields(line)
	if len(toks) < 2 {
		return e, fmt.Errorf("malformed entry %q", line)
	}
	op, ok := opByName[toks[0]]
	if !ok {
		return e, fmt.Errorf("unknown op %q", toks[0])
	}
	e.Op = op
	sawTask := false
	for _, tok := range toks[1:] {
		if tok == "ext" {
			e.External = true
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return e, fmt.Errorf("malformed operand %q", tok)
		}
		switch key {
		case "delay", "time":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return e, fmt.Errorf("bad %s %q", key, val)
			}
			if key == "delay" {
				e.Delay = v
			} else {
				e.Time = v
			}
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return e, fmt.Errorf("bad %s %q", key, val)
		}
		switch key {
		case "task":
			e.Task = TaskID(v)
			sawTask = true
		case "target":
			e.Target = TaskID(v)
		case "queue":
			e.Queue = QueueID(v)
		case "monitor":
			e.Monitor = MonitorID(v)
		case "lock":
			e.Lock = LockID(v)
		case "listener":
			e.Listener = ListenerID(v)
		case "var":
			e.Var = VarID(v)
		case "value":
			e.Value = ObjID(v)
		case "txn":
			e.Txn = TxnID(v)
		case "pc":
			e.PC = PC(v)
		case "tpc":
			e.TargetPC = PC(v)
		case "branch":
			e.Branch = BranchKind(v)
		case "method":
			e.Method = MethodID(v)
		default:
			return e, fmt.Errorf("unknown operand %q", key)
		}
	}
	if !sawTask {
		return e, fmt.Errorf("entry %q missing task", line)
	}
	return e, nil
}

// DecodeAuto sniffs the format (binary "CAFA" vs text "CAFA-TEXT")
// from a peek buffer and decodes accordingly. Sniffing never consumes
// bytes and tolerates streams shorter than the peek window.
func DecodeAuto(rd io.Reader) (*Trace, error) {
	d, err := NewStreamDecoder(rd)
	if err != nil {
		return nil, err
	}
	return collect(d)
}
