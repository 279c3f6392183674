package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// Trace is one recorded execution: the ordered operation list plus the
// metadata tables the offline analyzer needs (task kinds, interned
// names). The entry index in Entries is the global sequence number;
// the happens-before relation of §3 is always consistent with it.
type Trace struct {
	Entries []Entry

	// Tasks holds the metadata of each task the trace declares, in
	// ascending ID order and one record per ID, so a task's index in
	// it is its slot: the per-entry passes keep per-task state in
	// slices indexed by slot. Add tasks with DeclareTask.
	Tasks []TaskInfo

	// Interned name tables for diagnostics (may be partially empty).
	Fields  map[FieldID]string
	Methods map[MethodID]string
	Queues  map[QueueID]string

	// StreamLen is the entry count of a streamed trace whose Entries
	// were consumed rather than materialized. It is zero for batch
	// traces; Len() prefers it only when Entries is empty.
	StreamLen int
}

// New returns an empty trace with initialized tables.
func New() *Trace {
	return &Trace{
		Fields:  make(map[FieldID]string),
		Methods: make(map[MethodID]string),
		Queues:  make(map[QueueID]string),
	}
}

// Append adds an entry and returns its sequence number.
func (tr *Trace) Append(e Entry) int {
	tr.Entries = append(tr.Entries, e)
	return len(tr.Entries) - 1
}

// Len returns the number of entries: the materialized count, or the
// streamed count for a header-only trace whose entries were consumed
// one at a time.
func (tr *Trace) Len() int {
	if n := len(tr.Entries); n > 0 || tr.StreamLen == 0 {
		return n
	}
	return tr.StreamLen
}

// DeclareTask records ti in Tasks, replacing any record with its ID.
// Tasks declared in ascending ID order, as the simulator declares
// them, are appended; any other goes to its sorted position.
func (tr *Trace) DeclareTask(ti TaskInfo) {
	if n := len(tr.Tasks); n == 0 || tr.Tasks[n-1].ID < ti.ID {
		tr.Tasks = append(tr.Tasks, ti)
		return
	}
	s, found := slices.BinarySearchFunc(tr.Tasks, ti.ID, byID)
	if found {
		tr.Tasks[s] = ti
		return
	}
	tr.Tasks = slices.Insert(tr.Tasks, s, ti)
}

// byID orders a task record against an ID.
func byID(ti TaskInfo, id TaskID) int { return cmp.Compare(ti.ID, id) }

// Slot returns the index of task id in Tasks, or -1 when the trace
// does not declare it. When the declared IDs are 1..n, as on every
// app model, the slot is the ID minus one; otherwise it is found by
// binary search, so a sparse header costs nothing beyond its records.
func (tr *Trace) Slot(id TaskID) int32 {
	if s := uint32(id) - 1; s < uint32(len(tr.Tasks)) && tr.Tasks[s].ID == id {
		return int32(s)
	}
	if s, found := slices.BinarySearchFunc(tr.Tasks, id, byID); found {
		return int32(s)
	}
	return -1
}

// task returns the record of task t, or nil when t is not declared.
func (tr *Trace) task(t TaskID) *TaskInfo {
	if s := tr.Slot(t); s >= 0 {
		return &tr.Tasks[s]
	}
	return nil
}

// Sweep calls f on each entry, in order, with its task's slot, and
// stops at the first error f returns. An entry whose task is not
// declared is an error: the stand-alone passes (hb.Scan,
// lockset.Compute, detect.Detect) sweep traces no validator has
// checked.
func (tr *Trace) Sweep(f func(i int, e *Entry, slot int32) error) error {
	for i := range tr.Entries {
		e := &tr.Entries[i]
		s := tr.Slot(e.Task)
		if s < 0 {
			return fmt.Errorf("trace: entry %d: task t%d not declared", i, e.Task)
		}
		if err := f(i, e, s); err != nil {
			return err
		}
	}
	return nil
}

// sortTasks sorts task records read in record order by ID, stably.
// When an ID repeats it returns the record index and ID of the first
// record, in record order, whose ID an earlier record declared, else
// -1. The decoders call it only when the records did not arrive
// strictly ascending.
func sortTasks(ts []TaskInfo) (dup int, id TaskID) {
	order := make([]int32, len(ts))
	for r := range order {
		order[r] = int32(r)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(ts[a].ID, ts[b].ID) })
	dup = -1
	sorted := make([]TaskInfo, len(ts))
	for k, r := range order {
		sorted[k] = ts[r]
		if k > 0 && ts[order[k-1]].ID == ts[r].ID && (dup < 0 || int(r) < dup) {
			dup, id = int(r), ts[r].ID
		}
	}
	copy(ts, sorted)
	return dup, id
}

// TaskName returns a diagnostic name for a task.
func (tr *Trace) TaskName(t TaskID) string {
	if ti := tr.task(t); ti != nil && ti.Name != "" {
		return ti.Name
	}
	return fmt.Sprintf("t%d", t)
}

// FieldName returns a diagnostic name for a field.
func (tr *Trace) FieldName(f FieldID) string {
	if n, ok := tr.Fields[f]; ok && n != "" {
		return n
	}
	return fmt.Sprintf("f%d", f)
}

// MethodName returns a diagnostic name for a method.
func (tr *Trace) MethodName(m MethodID) string {
	if n, ok := tr.Methods[m]; ok && n != "" {
		return n
	}
	return fmt.Sprintf("m%d", m)
}

// VarName renders a variable as owner.field.
func (tr *Trace) VarName(v VarID) string {
	if v.Owner() == NullObj {
		return fmt.Sprintf("static.%s", tr.FieldName(v.Field()))
	}
	return fmt.Sprintf("o%d.%s", v.Owner(), tr.FieldName(v.Field()))
}

// IsEventTask reports whether t is an event (as opposed to a regular
// or looper thread).
func (tr *Trace) IsEventTask(t TaskID) bool {
	ti := tr.task(t)
	return ti != nil && ti.Kind == KindEvent
}

// LooperOf returns the looper thread that processed event t, or NoTask
// if t is not an event.
func (tr *Trace) LooperOf(t TaskID) TaskID {
	if ti := tr.task(t); ti != nil && ti.Kind == KindEvent {
		return ti.Looper
	}
	return NoTask
}

// EventCount returns the number of event tasks in the trace; this is
// the "Events" column of Table 1.
func (tr *Trace) EventCount() int {
	n := 0
	for _, ti := range tr.Tasks {
		if ti.Kind == KindEvent {
			n++
		}
	}
	return n
}

// Validate performs structural well-formedness checks:
//
//   - every entry's Op is valid and its Task is declared in Tasks;
//   - every task with entries has exactly one begin, preceding all its
//     other entries, and at most one end, following them;
//   - no entry follows a task's end;
//   - a task never begins before it is sent/forked (when the
//     sender/forker is present in the trace);
//   - entry Times are non-decreasing.
//
// It returns the first violation found, or nil.
func (tr *Trace) Validate() error {
	v := NewValidator(tr)
	for i := range tr.Entries {
		if _, err := v.Entry(&tr.Entries[i]); err != nil {
			return err
		}
	}
	return v.Finish()
}

// Validator performs the Validate checks incrementally, one entry at
// a time, so a streamed trace can be validated without materializing
// Entries. State is O(tasks), not O(trace): one record per slot of
// the header's task table. The header trace supplies the task table;
// Finish runs the end-of-trace table checks.
type Validator struct {
	tr       *Trace
	states   []taskValState // by slot
	lastTime int64
	i        int

	// undeclared holds the state of fork/send targets the header does
	// not declare. Such a target can never run, so only its creation
	// is tracked.
	undeclared map[TaskID]*taskValState

	// The previous entry's task and its slot: tasks run in long
	// stretches, so Entry resolves a slot once per stretch. NoTask
	// never matches: entries with it are rejected first.
	runTask TaskID
	runSlot int32
}

// taskValState is one task's validation state. A fork or send
// creates it for its target before the target's first entry.
type taskValState struct {
	begun, ended bool
	// created is 1 + the seq of the fork/send creating the task, 0
	// while none has.
	created int
}

// NewValidator returns a Validator over the header's task table.
func NewValidator(header *Trace) *Validator {
	return &Validator{
		tr:     header,
		states: make([]taskValState, len(header.Tasks)),
	}
}

// Entry checks the next entry in sequence and returns the slot of its
// task in the header's task table, which the per-entry passes index
// their state by; messages are identical to the batch Validate.
// Messages format e.String() rather than e: passing the pointer to fmt
// would make it escape, moving a streaming caller's by-value entry to
// the heap on every call.
func (v *Validator) Entry(e *Entry) (int32, error) {
	tr, i := v.tr, v.i
	v.i++
	if !e.Op.Valid() {
		return -1, fmt.Errorf("trace: entry %d: invalid op %d", i, uint8(e.Op))
	}
	if e.Task == NoTask {
		return -1, fmt.Errorf("trace: entry %d (%s): zero task id", i, e.String())
	}
	if e.Task != v.runTask {
		v.runTask, v.runSlot = e.Task, tr.Slot(e.Task)
	}
	slot := v.runSlot
	if slot < 0 {
		return -1, fmt.Errorf("trace: entry %d (%s): task t%d not declared", i, e.String(), e.Task)
	}
	st := &v.states[slot]
	if e.Time < v.lastTime {
		return -1, fmt.Errorf("trace: entry %d (%s): time goes backwards (%d < %d)", i, e.String(), e.Time, v.lastTime)
	}
	v.lastTime = e.Time

	switch e.Op {
	case OpBegin:
		if st.begun {
			return -1, fmt.Errorf("trace: entry %d: task %s begins twice", i, tr.TaskName(e.Task))
		}
		st.begun = true
	case OpEnd:
		if !st.begun {
			return -1, fmt.Errorf("trace: entry %d: task %s ends before beginning", i, tr.TaskName(e.Task))
		}
		if st.ended {
			return -1, fmt.Errorf("trace: entry %d: task %s ends twice", i, tr.TaskName(e.Task))
		}
		st.ended = true
	default:
		if !st.begun {
			return -1, fmt.Errorf("trace: entry %d (%s): operation before begin of %s", i, e.String(), tr.TaskName(e.Task))
		}
		if st.ended {
			return -1, fmt.Errorf("trace: entry %d (%s): operation after end of %s", i, e.String(), tr.TaskName(e.Task))
		}
	}
	switch e.Op {
	case OpFork, OpSend, OpSendAtFront:
		if e.Target == NoTask {
			return -1, fmt.Errorf("trace: entry %d (%s): zero target", i, e.String())
		}
		tst := v.target(e.Target)
		switch {
		case tst.begun:
			return -1, fmt.Errorf("trace: entry %d (%s): target t%d already began", i, e.String(), e.Target)
		case tst.created != 0:
			return -1, fmt.Errorf("trace: entry %d (%s): task t%d created twice (first at %d)", i, e.String(), e.Target, tst.created-1)
		}
		tst.created = i + 1
	}
	return slot, nil
}

// target returns the state of a fork/send target.
func (v *Validator) target(t TaskID) *taskValState {
	if s := v.tr.Slot(t); s >= 0 {
		return &v.states[s]
	}
	if v.undeclared == nil {
		v.undeclared = make(map[TaskID]*taskValState)
	}
	st := v.undeclared[t]
	if st == nil {
		st = &taskValState{}
		v.undeclared[t] = st
	}
	return st
}

// Finish runs the end-of-trace task-table checks. It walks the table
// in ID order and reports the first fault, so when several tasks fail
// them every run over one trace reports the lowest-ID task's.
func (v *Validator) Finish() error {
	tr := v.tr
	for _, ti := range tr.Tasks {
		if ti.Kind != KindEvent {
			continue
		}
		if ti.Looper == NoTask {
			return fmt.Errorf("trace: event %s has no looper", tr.TaskName(ti.ID))
		}
		if lt := tr.task(ti.Looper); lt == nil || lt.Kind != KindThread {
			return fmt.Errorf("trace: event %s: looper t%d is not a thread", tr.TaskName(ti.ID), ti.Looper)
		}
	}
	return nil
}
