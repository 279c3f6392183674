package trace

import "slices"

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
	return newTaskTable(tr, nil)
}

// AllTasks slots every task tr names: the declared ones, the loopers
// their events name, and the task of every entry. The stand-alone
// passes (hb.Scan, lockset.Compute, detect.Detect) use it, since they
// accept traces no validator has checked.
func AllTasks(tr *Trace) *TaskTable {
	var extra []TaskID
	for _, ti := range tr.Tasks {
		if ti.Kind == KindEvent {
			if _, ok := tr.Tasks[ti.Looper]; !ok {
				extra = append(extra, ti.Looper)
			}
		}
	}
	for i := range tr.Entries {
		t := tr.Entries[i].Task
		if i > 0 && t == tr.Entries[i-1].Task {
			continue
		}
		if _, ok := tr.Tasks[t]; !ok {
			extra = append(extra, t)
		}
	}
	slices.Sort(extra)
	return newTaskTable(tr, slices.Compact(extra))
}

// newTaskTable slots the declared tasks plus extra, which holds
// distinct undeclared IDs.
func newTaskTable(tr *Trace, extra []TaskID) *TaskTable {
	n := len(tr.Tasks) + len(extra)
	t := &TaskTable{n: int32(n)}
	dense := true
	for id := range tr.Tasks {
		if id == NoTask || int(id) > n {
			dense = false
			break
		}
	}
	for _, id := range extra {
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
		ids = append(ids, extra...)
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

// Looper returns the slot of the looper that ran the event in slot s,
// or -1 when s is not an event or its looper has no slot.
func (t *TaskTable) Looper(s int32) int32 { return t.looper[s] }
