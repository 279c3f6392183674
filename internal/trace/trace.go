package trace

import (
	"fmt"
	"sort"
)

// Trace is one recorded execution: the ordered operation list plus the
// metadata tables the offline analyzer needs (task kinds, interned
// names). The entry index in Entries is the global sequence number;
// the happens-before relation of §3 is always consistent with it.
type Trace struct {
	Entries []Entry

	// Tasks maps each TaskID appearing in the trace to its metadata.
	Tasks map[TaskID]TaskInfo

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
		Tasks:   make(map[TaskID]TaskInfo),
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

// TaskName returns a diagnostic name for a task.
func (tr *Trace) TaskName(t TaskID) string {
	if ti, ok := tr.Tasks[t]; ok && ti.Name != "" {
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
	return tr.Tasks[t].Kind == KindEvent
}

// LooperOf returns the looper thread that processed event t, or NoTask
// if t is not an event.
func (tr *Trace) LooperOf(t TaskID) TaskID {
	ti := tr.Tasks[t]
	if ti.Kind != KindEvent {
		return NoTask
	}
	return ti.Looper
}

// TaskIDs returns all task ids in ascending order.
func (tr *Trace) TaskIDs() []TaskID {
	ids := make([]TaskID, 0, len(tr.Tasks))
	for id := range tr.Tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
	v := NewValidator(tr, NewTaskTable(tr))
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
	tasks    *TaskTable
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

// NewValidator returns a Validator over the header's task table;
// tasks must be NewTaskTable(header), built once per trace.
func NewValidator(header *Trace, tasks *TaskTable) *Validator {
	return &Validator{
		tr:     header,
		tasks:  tasks,
		states: make([]taskValState, tasks.Len()),
	}
}

// Entry checks the next entry in sequence and returns the slot of its
// task in the validator's TaskTable, which the per-entry passes index
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
		v.runTask, v.runSlot = e.Task, v.tasks.Slot(e.Task)
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
	if s := v.tasks.Slot(t); s >= 0 {
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

// Finish runs the end-of-trace task-table checks. When several tasks
// fail them it reports the one with the lowest ID, so repeated runs
// over one trace report the same fault.
func (v *Validator) Finish() error {
	var bad TaskID
	var err error
	for id, ti := range v.tr.Tasks {
		if err != nil && id > bad {
			continue
		}
		if e := v.taskFault(id, ti); e != nil {
			bad, err = id, e
		}
	}
	return err
}

// taskFault checks one task table record.
func (v *Validator) taskFault(id TaskID, ti TaskInfo) error {
	tr := v.tr
	if ti.ID != 0 && ti.ID != id {
		return fmt.Errorf("trace: task table entry %d has mismatched ID %d", id, ti.ID)
	}
	if ti.Kind == KindEvent {
		if ti.Looper == NoTask {
			return fmt.Errorf("trace: event %s has no looper", tr.TaskName(id))
		}
		if lt, ok := tr.Tasks[ti.Looper]; !ok || lt.Kind != KindThread {
			return fmt.Errorf("trace: event %s: looper t%d is not a thread", tr.TaskName(id), ti.Looper)
		}
	}
	return nil
}
