// Package lockset computes the set of locks held at each operation of
// a trace. The causality model deliberately derives no happens-before
// from unlock → lock (§3.1); instead, conflicting operations whose
// lock sets intersect are assumed race-free, since the programmer
// explicitly protects them (§3.2).
package lockset

import (
	"fmt"
	"sort"

	"cafa/internal/trace"
)

// Sets holds held-lock snapshots by entry index. Only entries whose
// held set is non-empty are recorded — a trace takes locks around a
// small fraction of its entries — so memory is O(locked entries), not
// O(trace), and an unrecorded entry reports no locks. Snapshots are
// interned: consecutive entries under an unchanged lock set share one
// slice.
type Sets struct {
	at map[int][]trace.LockID
}

// Compute scans the trace once and records held-lock snapshots. The
// trace need not have been validated, but every task an entry names
// must be declared: Compute fails on the first that is not.
func Compute(tr *trace.Trace) (*Sets, error) {
	tk := NewTracker(tr)
	if err := tr.Sweep(tk.Consume); err != nil {
		return nil, err
	}
	return tk.Sets(), nil
}

// Tracker advances lock state one entry at a time, so a streamed
// trace needs no materialized entry slice.
type Tracker struct {
	s    *Sets
	held [][]trace.LockID // by task slot
}

// NewTracker returns a Tracker with no locks held over the task slots
// of a header trace (Entries may be empty).
func NewTracker(header *trace.Trace) *Tracker {
	return &Tracker{
		s:    &Sets{at: make(map[int][]trace.LockID)},
		held: make([][]trace.LockID, len(header.Tasks)),
	}
}

// Consume processes entry i, whose task has slot slot (see
// trace.Trace.Slot). Entries must arrive in order.
func (tk *Tracker) Consume(i int, e *trace.Entry, slot int32) error {
	cur := tk.held[slot]
	switch e.Op {
	case trace.OpLock:
		for _, l := range cur {
			if l == e.Lock {
				return fmt.Errorf("lockset: entry %d: lock l%d acquired twice by t%d", i, e.Lock, e.Task)
			}
		}
		next := make([]trace.LockID, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = e.Lock
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		tk.held[slot] = next
		cur = next
	case trace.OpUnlock:
		idx := -1
		for j, l := range cur {
			if l == e.Lock {
				idx = j
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("lockset: entry %d: unlock of l%d not held by t%d", i, e.Lock, e.Task)
		}
		next := make([]trace.LockID, 0, len(cur)-1)
		next = append(next, cur[:idx]...)
		next = append(next, cur[idx+1:]...)
		tk.held[slot] = next
		cur = next
	}
	if len(cur) > 0 {
		tk.s.at[i] = cur
	}
	return nil
}

// Sets returns the accumulated snapshots.
func (tk *Tracker) Sets() *Sets { return tk.s }

// At returns the locks held at entry i (sorted; shared slice — do not
// mutate).
func (s *Sets) At(i int) []trace.LockID { return s.at[i] }

// Common returns the locks held at both entries i and j, sorted — the
// witness behind a lockset prune. The result is freshly allocated.
func (s *Sets) Common(i, j int) []trace.LockID {
	a, b := s.At(i), s.At(j)
	var out []trace.LockID
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			out = append(out, a[x])
			x++
			y++
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	return out
}

// Intersects reports whether the lock sets at entries i and j share a
// lock — the mutual-exclusion condition that suppresses a race
// report.
func (s *Sets) Intersects(i, j int) bool {
	a, b := s.At(i), s.At(j)
	// Both are sorted; merge-scan.
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			return true
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	return false
}
