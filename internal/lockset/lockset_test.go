package lockset

import (
	"strings"
	"testing"

	"cafa/internal/trace"
)

func mkTrace(entries []trace.Entry) *trace.Trace {
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "a"})
	tr.DeclareTask(trace.TaskInfo{ID: 2, Kind: trace.KindThread, Name: "b"})
	for i, e := range entries {
		e.Time = int64(i)
		tr.Append(e)
	}
	return tr
}

func TestHeldSets(t *testing.T) {
	tr := mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // no locks
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // {5}
		{Task: 1, Op: trace.OpLock, Lock: 3},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // {3,5}
		{Task: 1, Op: trace.OpUnlock, Lock: 5},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // {3}
		{Task: 1, Op: trace.OpUnlock, Lock: 3},
		{Task: 1, Op: trace.OpEnd},
	})
	s, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.At(1)) != 0 {
		t.Errorf("At(1) = %v, want empty", s.At(1))
	}
	if got := s.At(3); len(got) != 1 || got[0] != 5 {
		t.Errorf("At(3) = %v, want [5]", got)
	}
	if got := s.At(5); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("At(5) = %v, want [3 5]", got)
	}
	if got := s.At(7); len(got) != 1 || got[0] != 3 {
		t.Errorf("At(7) = %v, want [3]", got)
	}
}

func TestIntersects(t *testing.T) {
	tr := mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // 3: t1 {5}
		{Task: 1, Op: trace.OpUnlock, Lock: 5},
		{Task: 2, Op: trace.OpLock, Lock: 5},
		{Task: 2, Op: trace.OpWrite, Var: 1}, // 6: t2 {5}
		{Task: 2, Op: trace.OpUnlock, Lock: 5},
		{Task: 2, Op: trace.OpLock, Lock: 7},
		{Task: 2, Op: trace.OpWrite, Var: 1}, // 9: t2 {7}
		{Task: 2, Op: trace.OpUnlock, Lock: 7},
		{Task: 1, Op: trace.OpEnd},
		{Task: 2, Op: trace.OpEnd},
	})
	s, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Intersects(3, 6) {
		t.Error("common lock 5 not detected")
	}
	if s.Intersects(3, 9) {
		t.Error("disjoint sets reported as intersecting")
	}
	if s.Intersects(1, 6) {
		t.Error("empty set cannot intersect")
	}
}

func TestErrors(t *testing.T) {
	_, err := Compute(mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpLock, Lock: 5},
	}))
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double acquire: err = %v", err)
	}
	_, err = Compute(mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpUnlock, Lock: 5},
	}))
	if err == nil || !strings.Contains(err.Error(), "not held") {
		t.Errorf("bad unlock: err = %v", err)
	}
}

func TestSnapshotsAreStablePerOp(t *testing.T) {
	// The snapshot at an op must reflect the set at that moment even
	// after later lock changes.
	tr := mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 1},
		{Task: 1, Op: trace.OpWrite, Var: 9}, // 2: {1}
		{Task: 1, Op: trace.OpLock, Lock: 2},
		{Task: 1, Op: trace.OpUnlock, Lock: 1},
		{Task: 1, Op: trace.OpWrite, Var: 9}, // 5: {2}
		{Task: 1, Op: trace.OpUnlock, Lock: 2},
		{Task: 1, Op: trace.OpEnd},
	})
	s, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("At(2) = %v, want [1]", got)
	}
	if got := s.At(5); len(got) != 1 || got[0] != 2 {
		t.Errorf("At(5) = %v, want [2]", got)
	}
}

func TestCommon(t *testing.T) {
	tr := mkTrace([]trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 3},
		{Task: 1, Op: trace.OpLock, Lock: 5},
		{Task: 1, Op: trace.OpWrite, Var: 1}, // {3,5}
		{Task: 1, Op: trace.OpUnlock, Lock: 5},
		{Task: 1, Op: trace.OpUnlock, Lock: 3},
		{Task: 1, Op: trace.OpEnd},
		{Task: 2, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpLock, Lock: 5},
		{Task: 2, Op: trace.OpLock, Lock: 7},
		{Task: 2, Op: trace.OpWrite, Var: 1}, // {5,7}
		{Task: 2, Op: trace.OpUnlock, Lock: 7},
		{Task: 2, Op: trace.OpUnlock, Lock: 5},
		{Task: 2, Op: trace.OpEnd},
	})
	s, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Common(3, 10); len(got) != 1 || got[0] != 5 {
		t.Errorf("Common(3,10) = %v, want [5]", got)
	}
	if got := s.Common(3, 3); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Common(3,3) = %v, want [3 5]", got)
	}
	if got := s.Common(0, 3); len(got) != 0 {
		t.Errorf("Common(0,3) = %v, want empty", got)
	}
}
