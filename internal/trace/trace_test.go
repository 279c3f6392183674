package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	for op := OpBegin; op < opMax; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no name", uint8(op))
		}
		if !op.Valid() {
			t.Errorf("op %d should be valid", uint8(op))
		}
	}
	if OpInvalid.Valid() {
		t.Error("OpInvalid should not be valid")
	}
	if opMax.Valid() {
		t.Error("opMax should not be valid")
	}
}

func TestMakeVar(t *testing.T) {
	cases := []struct {
		owner ObjID
		field FieldID
	}{
		{0, 0}, {1, 2}, {NullObj, 7}, {0xffffffff, 0xffffffff}, {42, 0},
	}
	for _, c := range cases {
		v := MakeVar(c.owner, c.field)
		if v.Owner() != c.owner || v.Field() != c.field {
			t.Errorf("MakeVar(%d,%d) round-trip = (%d,%d)", c.owner, c.field, v.Owner(), v.Field())
		}
	}
}

func TestMakeVarQuick(t *testing.T) {
	f := func(owner uint32, field uint32) bool {
		v := MakeVar(ObjID(owner), FieldID(field))
		return v.Owner() == ObjID(owner) && v.Field() == FieldID(field)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryFreeAlloc(t *testing.T) {
	free := Entry{Op: OpPtrWrite, Value: NullObj}
	if !free.IsFree() || free.IsAlloc() {
		t.Error("null pointer write should be a free")
	}
	alloc := Entry{Op: OpPtrWrite, Value: 5}
	if alloc.IsFree() || !alloc.IsAlloc() {
		t.Error("non-null pointer write should be an allocation")
	}
	read := Entry{Op: OpPtrRead, Value: NullObj}
	if read.IsFree() || read.IsAlloc() {
		t.Error("pointer read is neither free nor alloc")
	}
}

// validTrace builds a small well-formed trace exercising all ops.
func validTrace() *Trace {
	tr := New()
	tr.DeclareTask(TaskInfo{ID: 1, Kind: KindThread, Name: "looper"})
	tr.DeclareTask(TaskInfo{ID: 2, Kind: KindThread, Name: "worker"})
	tr.DeclareTask(TaskInfo{ID: 3, Kind: KindEvent, Name: "onCreate", Looper: 1, Queue: 1})
	tr.DeclareTask(TaskInfo{ID: 4, Kind: KindEvent, Name: "onDestroy", Looper: 1, Queue: 1})
	tr.Fields[1] = "providerUtils"
	tr.Methods[1] = "onCreate"
	tr.Queues[1] = "main"
	es := []Entry{
		{Task: 1, Op: OpBegin},
		{Task: 1, Op: OpFork, Target: 2},
		{Task: 2, Op: OpBegin},
		{Task: 2, Op: OpSend, Target: 3, Queue: 1, Delay: 5},
		{Task: 2, Op: OpSendAtFront, Target: 4, Queue: 1},
		{Task: 2, Op: OpLock, Lock: 9},
		{Task: 2, Op: OpWrite, Var: MakeVar(7, 1)},
		{Task: 2, Op: OpUnlock, Lock: 9},
		{Task: 2, Op: OpNotify, Monitor: 3},
		{Task: 2, Op: OpEnd},
		{Task: 1, Op: OpJoin, Target: 2},
		{Task: 4, Op: OpBegin, Queue: 1},
		{Task: 4, Op: OpRegister, Listener: 11},
		{Task: 4, Op: OpPtrWrite, Var: MakeVar(7, 1), Value: NullObj, PC: 3, Method: 1},
		{Task: 4, Op: OpEnd},
		{Task: 3, Op: OpBegin, Queue: 1},
		{Task: 3, Op: OpPerform, Listener: 11},
		{Task: 3, Op: OpPtrRead, Var: MakeVar(7, 1), Value: 12, PC: 5, Method: 1},
		{Task: 3, Op: OpBranch, Value: 12, PC: 6, TargetPC: 9, Branch: BranchIfNez, Method: 1},
		{Task: 3, Op: OpDeref, Value: 12, PC: 7, Method: 1},
		{Task: 3, Op: OpInvoke, Method: 1, PC: 7},
		{Task: 3, Op: OpRead, Var: 99},
		{Task: 3, Op: OpReturn, Method: 1, PC: 8},
		{Task: 3, Op: OpRPCCall, Txn: 77},
		{Task: 3, Op: OpRPCRet, Txn: 77},
		{Task: 3, Op: OpMsgSend, Txn: 78},
		{Task: 3, Op: OpWait, Monitor: 3},
		{Task: 3, Op: OpEnd},
		{Task: 1, Op: OpEnd},
	}
	for i, e := range es {
		e.Time = int64(i)
		tr.Append(e)
	}
	return tr
}

func TestValidateOK(t *testing.T) {
	tr := validTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mut func(tr *Trace)) *Trace {
		tr := validTrace()
		mut(tr)
		return tr
	}
	cases := []struct {
		name string
		tr   *Trace
		want string
	}{
		{"invalid op", mk(func(tr *Trace) { tr.Entries[0].Op = opMax }), "invalid op"},
		{"zero task", mk(func(tr *Trace) { tr.Entries[0].Task = 0 }), "zero task"},
		{"undeclared task", mk(func(tr *Trace) { tr.Entries[0].Task = 999 }), "not declared"},
		{"time backwards", mk(func(tr *Trace) { tr.Entries[5].Time = 0 }), "time goes backwards"},
		{"double begin", mk(func(tr *Trace) { tr.Entries[1] = Entry{Task: 1, Op: OpBegin, Time: 1} }), "begins twice"},
		{"op before begin", mk(func(tr *Trace) { tr.Entries[2] = Entry{Task: 2, Op: OpRead, Time: 2} }), "before begin"},
		{"end before begin", mk(func(tr *Trace) { tr.Entries[2] = Entry{Task: 2, Op: OpEnd, Time: 2} }), "ends before beginning"},
		{"zero fork target", mk(func(tr *Trace) { tr.Entries[1].Target = 0 }), "zero target"},
		// The validator caches the previous entry's task; these pin
		// its full messages across run boundaries.
		{"undeclared task after a run", mk(func(tr *Trace) { tr.Entries[6].Task = 999 }),
			"trace: entry 6 (wr(t999, x700000001) @6): task t999 not declared"},
		{"task switch A-B-A", mk(func(tr *Trace) { tr.Entries[11] = Entry{Task: 2, Op: OpRead, Var: 1, Time: 11} }),
			"trace: entry 11 (rd(t2, x1) @11): operation after end of worker"},
		{"undeclared first entry", mk(func(tr *Trace) { tr.Entries[0].Task = 5 }),
			"trace: entry 0 (begin(t5) @0): task t5 not declared"},
		{"event without looper", mk(func(tr *Trace) {
			tr.Tasks[tr.Slot(3)].Looper = 0
		}), "no looper"},
		{"event looper not thread", mk(func(tr *Trace) {
			tr.Tasks[tr.Slot(3)].Looper = 4
		}), "not a thread"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.tr.Validate()
			if err == nil {
				t.Fatal("validation unexpectedly passed")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestValidateFinishStable pins the end-of-trace check to one fault
// when several tasks fail it: the lowest-ID task's, on every call,
// whatever order the tasks were declared in.
func TestValidateFinishStable(t *testing.T) {
	tr := New()
	for id := TaskID(2); id <= 9; id++ {
		tr.DeclareTask(TaskInfo{ID: id, Kind: KindEvent, Name: fmt.Sprintf("ev%d", id)})
	}
	// A lower-ID event failing the other looper check still wins.
	tr.DeclareTask(TaskInfo{ID: 1, Kind: KindEvent, Name: "first", Looper: 30})
	const want = "trace: event first: looper t30 is not a thread"
	for range 50 {
		if err := tr.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate() = %v, want %q", err, want)
		}
	}
	tr.Tasks = slices.Delete(tr.Tasks, 0, 1) // task 1
	for range 50 {
		if err := tr.Validate(); err == nil || err.Error() != "trace: event ev2 has no looper" {
			t.Fatalf("Validate() = %v, want the ev2 fault", err)
		}
	}
}

// TestTaskTable covers the header's task table as the slot table:
// Slot on IDs 1..n and on sparse IDs, and Sweep's slots.
func TestTaskTable(t *testing.T) {
	dense := validTrace()
	for id := TaskID(0); id <= 5; id++ {
		want := int32(id) - 1
		if id == 0 || id == 5 {
			want = -1
		}
		if got := dense.Slot(id); got != want {
			t.Errorf("dense Slot(%d) = %d, want %d", id, got, want)
		}
	}
	if dense.Slot(dense.LooperOf(4)) != dense.Slot(1) || dense.LooperOf(2) != NoTask {
		t.Error("dense table: wrong looper slots")
	}

	sparse := New()
	ids := []TaskID{0xFFFFFFFE, 1 << 31, 1 << 20, 1}
	for _, id := range ids {
		sparse.DeclareTask(TaskInfo{ID: id, Kind: KindThread})
	}
	sparse.DeclareTask(TaskInfo{ID: 1 << 20, Kind: KindEvent, Looper: 0xFFFFFFFE})
	if len(sparse.Tasks) != 4 || sparse.Tasks[1].Kind != KindEvent {
		t.Fatalf("sparse table: %+v", sparse.Tasks)
	}
	for s, id := range []TaskID{1, 1 << 20, 1 << 31, 0xFFFFFFFE} {
		if sparse.Slot(id) != int32(s) {
			t.Errorf("sparse: slot of %#x = %d, want %d", id, sparse.Slot(id), s)
		}
	}
	// 2 and 3 fall in range of the fast path; 4 is past the end.
	for _, id := range []TaskID{0, 2, 3, 4, 1<<20 + 1, 0xFFFFFFFF} {
		if sparse.Slot(id) != -1 {
			t.Errorf("sparse table slots undeclared task %#x", id)
		}
	}
	if sparse.Slot(sparse.Tasks[1].Looper) != 3 || sparse.LooperOf(1) != NoTask {
		t.Error("sparse table: wrong looper slots")
	}
	sparse.Entries = []Entry{{Task: 1 << 31}, {Task: 1}, {Task: 0xFFFFFFFE}, {Task: 2}, {Task: 1}}
	var slots []int32
	err := sparse.Sweep(func(_ int, _ *Entry, s int32) error { slots = append(slots, s); return nil })
	if !slices.Equal(slots, []int32{2, 0, 3}) || err == nil || err.Error() != "trace: entry 3: task t2 not declared" {
		t.Errorf("Sweep: slots %v, error %v", slots, err)
	}
}

// TestDeclareTaskOutOfOrder declares tasks in scrambled order, with a
// redeclaration, and requires the table an ascending declaration of
// the final records builds.
func TestDeclareTaskOutOfOrder(t *testing.T) {
	want := validTrace().Tasks
	got := New()
	for _, s := range []int{2, 0, 3, 1} {
		ti := want[s]
		ti.Name = "stale"
		got.DeclareTask(ti)
	}
	for _, s := range []int{3, 1, 2, 0} {
		got.DeclareTask(want[s])
	}
	if !reflect.DeepEqual(got.Tasks, want) {
		t.Errorf("out-of-order declaration:\n got %+v\nwant %+v", got.Tasks, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Entries, got.Entries) {
		t.Error("entries differ after round trip")
	}
	if !reflect.DeepEqual(tr.Tasks, got.Tasks) {
		t.Error("task tables differ after round trip")
	}
	if !reflect.DeepEqual(tr.Fields, got.Fields) || !reflect.DeepEqual(tr.Methods, got.Methods) || !reflect.DeepEqual(tr.Queues, got.Queues) {
		t.Error("name tables differ after round trip")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	tr := validTrace()
	var a, b bytes.Buffer
	if err := tr.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte("CAFA\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncation at every prefix must error, not panic.
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data)-1; n += 7 {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncated input of %d bytes accepted", n)
		}
	}
}

// randomEntry builds a structurally plausible random entry for the
// codec property test.
func randomEntry(r *rand.Rand) Entry {
	ops := []Op{
		OpBegin, OpEnd, OpRead, OpWrite, OpFork, OpJoin, OpWait, OpNotify,
		OpSend, OpSendAtFront, OpRegister, OpPerform, OpLock, OpUnlock,
		OpPtrRead, OpPtrWrite, OpDeref, OpBranch, OpInvoke, OpReturn,
		OpRPCCall, OpRPCHandle, OpRPCReply, OpRPCRet, OpMsgSend, OpMsgRecv,
	}
	return Entry{
		Task:     TaskID(r.Uint32()%1000 + 1),
		Op:       ops[r.Intn(len(ops))],
		Time:     r.Int63n(1 << 40),
		Target:   TaskID(r.Uint32() % 100),
		Queue:    QueueID(r.Uint32() % 8),
		Delay:    r.Int63n(1000) - 100,
		External: r.Intn(2) == 0,
		Monitor:  MonitorID(r.Uint32() % 50),
		Lock:     LockID(r.Uint32() % 50),
		Listener: ListenerID(r.Uint32() % 50),
		Var:      VarID(r.Uint64()),
		Value:    ObjID(r.Uint32()),
		Txn:      TxnID(r.Uint32()),
		PC:       PC(r.Uint32() % 10000),
		TargetPC: PC(r.Uint32() % 10000),
		Branch:   BranchKind(r.Intn(3)),
		Method:   MethodID(r.Uint32() % 500),
	}
}

func TestCodecQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		tr := New()
		n := r.Intn(50)
		for i := 0; i < n; i++ {
			e := randomEntry(r)
			tr.Append(e)
			tr.DeclareTask(TaskInfo{ID: e.Task, Kind: KindThread, Name: "t"})
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(got.Entries) != len(tr.Entries) {
			t.Fatalf("iter %d: %d entries, want %d", iter, len(got.Entries), len(tr.Entries))
		}
		if len(tr.Entries) > 0 && !reflect.DeepEqual(tr.Entries, got.Entries) {
			t.Fatalf("iter %d: entries differ", iter)
		}
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.DeclareTask(TaskInfo{ID: 1, Kind: KindThread, Name: "main"})
	c.InternField(2, "x")
	c.InternMethod(3, "run")
	c.InternQueue(4, "main")
	c.Emit(Entry{Task: 1, Op: OpBegin})
	c.Emit(Entry{Task: 1, Op: OpEnd})
	if c.T.Len() != 2 {
		t.Fatalf("collector has %d entries, want 2", c.T.Len())
	}
	if c.T.TaskName(1) != "main" || c.T.FieldName(2) != "x" || c.T.MethodName(3) != "run" {
		t.Error("name tables not populated")
	}
	if got := c.T.VarName(MakeVar(0, 2)); got != "static.x" {
		t.Errorf("VarName static = %q", got)
	}
	if got := c.T.VarName(MakeVar(9, 2)); got != "o9.x" {
		t.Errorf("VarName instance = %q", got)
	}
	// Discard must be a no-op and never panic.
	var d Discard
	d.DeclareTask(TaskInfo{})
	d.Emit(Entry{})
	d.InternField(0, "")
	d.InternMethod(0, "")
	d.InternQueue(0, "")
}

func TestWriteTextAndStrings(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"send(", "sendAtFront(", "fork(", "if-nez", "rpcCall", "txn77"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines != tr.Len() {
		t.Errorf("text dump has %d lines, want %d", lines, tr.Len())
	}
}

func TestEventCountAndLooperOf(t *testing.T) {
	tr := validTrace()
	if got := tr.EventCount(); got != 2 {
		t.Errorf("EventCount = %d, want 2", got)
	}
	if got := tr.LooperOf(3); got != 1 {
		t.Errorf("LooperOf(event) = %d, want 1", got)
	}
	if got := tr.LooperOf(1); got != NoTask {
		t.Errorf("LooperOf(thread) = %d, want 0", got)
	}
	if !tr.IsEventTask(3) || tr.IsEventTask(2) {
		t.Error("IsEventTask misclassifies")
	}
	for i := 1; i < len(tr.Tasks); i++ {
		if tr.Tasks[i].ID <= tr.Tasks[i-1].ID {
			t.Error("Tasks not ascending")
		}
	}
}

func TestTaskKindString(t *testing.T) {
	if KindThread.String() != "thread" || KindEvent.String() != "event" {
		t.Error("TaskKind strings wrong")
	}
	if s := TaskKind(9).String(); !strings.Contains(s, "9") {
		t.Error("unknown TaskKind string should include the value")
	}
	if s := BranchKind(9).String(); !strings.Contains(s, "9") {
		t.Error("unknown BranchKind string should include the value")
	}
}
