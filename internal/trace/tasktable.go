package trace

import (
	"fmt"
	"slices"
)

// TaskTable numbers the tasks of one trace densely, so the per-entry
// passes keep per-task state in slices indexed by slot instead of maps
// keyed by TaskID. Slots run 0..Len()-1 in ascending TaskID order.
//
// When the slotted IDs are exactly 1..n, as the simulator and every
// app model emit them, a task's slot is its ID minus one and the table
// holds no index. Otherwise it holds one map from ID to slot, built
// once, so its memory is bounded by the number of slotted tasks and
// never by the largest ID.
type TaskTable struct {
	n      int32
	slots  map[TaskID]int32 // ID → slot; nil when dense
	looper []int32          // slot → its looper's slot for an event, else -1
}

// NewTaskTable slots exactly the tasks the header declares in
// tr.Tasks, so a task has a slot iff it is declared. An event whose
// looper is not declared keeps no looper slot; Validator.Finish
// rejects such a trace.
func NewTaskTable(tr *Trace) *TaskTable {
	n := len(tr.Tasks)
	t := &TaskTable{n: int32(n)}
	dense := true
	for id := range tr.Tasks {
		if id == NoTask || int(id) > n {
			dense = false
			break
		}
	}
	if !dense {
		ids := make([]TaskID, 0, n)
		for id := range tr.Tasks {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		t.slots = make(map[TaskID]int32, n)
		for s, id := range ids {
			t.slots[id] = int32(s)
		}
	}
	t.looper = make([]int32, n)
	for s := range t.looper {
		t.looper[s] = -1
	}
	for id, ti := range tr.Tasks {
		if ti.Kind == KindEvent {
			t.looper[t.Slot(id)] = t.Slot(ti.Looper)
		}
	}
	return t
}

// Len returns the number of slots.
func (t *TaskTable) Len() int { return int(t.n) }

// Slot returns the task's slot, or -1 when the table has none for it.
func (t *TaskTable) Slot(id TaskID) int32 {
	if t.slots == nil {
		if uint32(id)-1 < uint32(t.n) {
			return int32(id) - 1
		}
		return -1
	}
	if s, ok := t.slots[id]; ok {
		return s
	}
	return -1
}

// Sweep calls f on each entry of tr, in order, with its task's slot,
// and stops at the first error f returns. An entry whose task has no
// slot is an error: the stand-alone passes (hb.Scan, lockset.Compute,
// detect.Detect) sweep traces no validator has checked with it.
func (t *TaskTable) Sweep(tr *Trace, f func(i int, e *Entry, slot int32) error) error {
	for i := range tr.Entries {
		e := &tr.Entries[i]
		s := t.Slot(e.Task)
		if s < 0 {
			return fmt.Errorf("trace: entry %d: task t%d not declared", i, e.Task)
		}
		if err := f(i, e, s); err != nil {
			return err
		}
	}
	return nil
}

// Looper returns the slot of the looper that ran the event in slot s,
// or -1 when s is not an event or its looper has no slot.
func (t *TaskTable) Looper(s int32) int32 { return t.looper[s] }
