package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cafa/internal/hb"
	"cafa/internal/trace"
)

func TestVCBasics(t *testing.T) {
	a := New(3)
	b := New(3)
	if !a.LEQ(b) || !b.LEQ(a) {
		t.Error("zero clocks must be equal")
	}
	a.Tick(1)
	if a.LEQ(b) {
		t.Error("ticked clock cannot be <= zero")
	}
	if !b.LEQ(a) {
		t.Error("zero must be <= ticked")
	}
	b.Tick(2)
	if a.LEQ(b) || b.LEQ(a) {
		t.Error("incomparable clocks compared as ordered")
	}
	c := a.Copy()
	c.Join(b)
	if !a.LEQ(c) || !b.LEQ(c) {
		t.Error("join must dominate both operands")
	}
	if c.Get(1) != 1 || c.Get(2) != 1 || c.Get(0) != 0 || c.Get(99) != 0 {
		t.Errorf("join = %v", c)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestVCQuickProperties(t *testing.T) {
	// Join is an upper bound; LEQ is reflexive and transitive.
	mk := func(xs []uint8) VC {
		v := New(4)
		for i, x := range xs {
			if i >= 4 {
				break
			}
			v[i] = uint64(x)
		}
		return v
	}
	upper := func(a, b []uint8) bool {
		va, vb := mk(a), mk(b)
		j := va.Copy()
		j.Join(vb)
		return va.LEQ(j) && vb.LEQ(j)
	}
	if err := quick.Check(upper, nil); err != nil {
		t.Error(err)
	}
	refl := func(a []uint8) bool {
		v := mk(a)
		return v.LEQ(v)
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c []uint8) bool {
		va, vb, vc := mk(a), mk(b), mk(c)
		if va.LEQ(vb) && vb.LEQ(vc) {
			return va.LEQ(vc)
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
}

func TestEpoch(t *testing.T) {
	v := New(3)
	v[1] = 5
	if !(Epoch{Slot: 1, Clock: 5}).LEQVC(v) {
		t.Error("epoch 5@1 must be <= clock with slot1=5")
	}
	if (Epoch{Slot: 1, Clock: 6}).LEQVC(v) {
		t.Error("epoch 6@1 must not be <= clock with slot1=5")
	}
}

// mkThreadTrace builds a simple two-thread trace with a fork edge.
func mkForkTrace() *trace.Trace {
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "main"})
	tr.DeclareTask(trace.TaskInfo{ID: 2, Kind: trace.KindThread, Name: "child"})
	es := []trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpWrite, Var: 7}, // 1
		{Task: 1, Op: trace.OpFork, Target: 2},
		{Task: 2, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpRead, Var: 7},  // 4
		{Task: 1, Op: trace.OpWrite, Var: 7}, // 5 — races with 4
		{Task: 2, Op: trace.OpEnd},
		{Task: 1, Op: trace.OpJoin, Target: 2},
		{Task: 1, Op: trace.OpWrite, Var: 7}, // 8 — ordered after join
		{Task: 1, Op: trace.OpEnd},
	}
	for i, e := range es {
		e.Time = int64(i)
		tr.Append(e)
	}
	return tr
}

func TestComputeOrdering(t *testing.T) {
	tr := mkForkTrace()
	c, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Ordered(tr, 1, 4) {
		t.Error("write before fork must order before child's read")
	}
	if c.Ordered(tr, 5, 4) || c.Ordered(tr, 4, 5) {
		t.Error("post-fork write and child read must be concurrent")
	}
	if !c.Ordered(tr, 4, 8) {
		t.Error("child read must order before post-join write")
	}
}

func TestFastTrackFindsThreadRace(t *testing.T) {
	tr := mkForkTrace()
	reports, err := FastTrack(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("FastTrack missed the read-write race")
	}
	found := false
	for _, r := range reports {
		if r.AIdx == 4 && r.BIdx == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("reports = %+v, want (4,5)", reports)
	}
}

func TestFastTrackRespectsLocks(t *testing.T) {
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "a"})
	tr.DeclareTask(trace.TaskInfo{ID: 2, Kind: trace.KindThread, Name: "b"})
	es := []trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpLock, Lock: 3},
		{Task: 1, Op: trace.OpWrite, Var: 7},
		{Task: 1, Op: trace.OpUnlock, Lock: 3},
		{Task: 2, Op: trace.OpLock, Lock: 3},
		{Task: 2, Op: trace.OpWrite, Var: 7},
		{Task: 2, Op: trace.OpUnlock, Lock: 3},
		{Task: 1, Op: trace.OpEnd},
		{Task: 2, Op: trace.OpEnd},
	}
	for i, e := range es {
		e.Time = int64(i)
		tr.Append(e)
	}
	reports, err := FastTrack(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Errorf("lock-protected accesses reported: %+v", reports)
	}
}

func TestFastTrackBlindToIntraLooperRaces(t *testing.T) {
	// Two concurrent events on one looper conflict; the conventional
	// detector folds them into the looper's program order and reports
	// nothing — the paper's core criticism.
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "looper"})
	tr.DeclareTask(trace.TaskInfo{ID: 2, Kind: trace.KindThread, Name: "s1"})
	tr.DeclareTask(trace.TaskInfo{ID: 3, Kind: trace.KindThread, Name: "s2"})
	tr.DeclareTask(trace.TaskInfo{ID: 4, Kind: trace.KindEvent, Name: "evA", Looper: 1, Queue: 1})
	tr.DeclareTask(trace.TaskInfo{ID: 5, Kind: trace.KindEvent, Name: "evB", Looper: 1, Queue: 1})
	es := []trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpBegin},
		{Task: 3, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1},
		{Task: 3, Op: trace.OpSend, Target: 5, Queue: 1},
		{Task: 2, Op: trace.OpEnd},
		{Task: 3, Op: trace.OpEnd},
		{Task: 4, Op: trace.OpBegin, Queue: 1},
		{Task: 4, Op: trace.OpWrite, Var: 7},
		{Task: 4, Op: trace.OpEnd},
		{Task: 5, Op: trace.OpBegin, Queue: 1},
		{Task: 5, Op: trace.OpWrite, Var: 7},
		{Task: 5, Op: trace.OpEnd},
		{Task: 1, Op: trace.OpEnd},
	}
	for i, e := range es {
		e.Time = int64(i)
		tr.Append(e)
	}
	reports, err := FastTrack(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Errorf("conventional detector should miss intra-looper races, got %+v", reports)
	}
	// The event-driven model sees it.
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Concurrent(8, 11) {
		t.Error("event-driven model must see the conflicting writes as concurrent")
	}
}

// genThreadTrace generates a random structurally-valid thread-only
// trace (no locks: the two models deliberately differ on lock edges).
func genThreadTrace(r *rand.Rand) *trace.Trace {
	tr := trace.New()
	type th struct {
		id    trace.TaskID
		live  bool
		ended bool
	}
	var threads []*th
	nextID := trace.TaskID(1)
	add := func() *th {
		t := &th{id: nextID}
		nextID++
		tr.DeclareTask(trace.TaskInfo{ID: t.id, Kind: trace.KindThread, Name: "t"})
		return t
	}
	emit := func(e trace.Entry) {
		e.Time = int64(len(tr.Entries))
		tr.Append(e)
	}
	root := add()
	root.live = true
	threads = append(threads, root)
	emit(trace.Entry{Task: root.id, Op: trace.OpBegin})
	var pending []*th
	livePick := func() *th {
		var cands []*th
		for _, t := range threads {
			if t.live {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[r.Intn(len(cands))]
	}
	steps := 30 + r.Intn(40)
	for i := 0; i < steps; i++ {
		t := livePick()
		if t == nil {
			break
		}
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			op := trace.OpRead
			if r.Intn(2) == 0 {
				op = trace.OpWrite
			}
			emit(trace.Entry{Task: t.id, Op: op, Var: trace.VarID(1 + r.Intn(4))})
		case 4:
			if len(threads) < 8 {
				u := add()
				threads = append(threads, u)
				pending = append(pending, u)
				emit(trace.Entry{Task: t.id, Op: trace.OpFork, Target: u.id})
			}
		case 5:
			if len(pending) > 0 {
				u := pending[0]
				pending = pending[1:]
				u.live = true
				emit(trace.Entry{Task: u.id, Op: trace.OpBegin})
			}
		case 6:
			emit(trace.Entry{Task: t.id, Op: trace.OpNotify, Monitor: trace.MonitorID(1 + r.Intn(2))})
		case 7:
			emit(trace.Entry{Task: t.id, Op: trace.OpWait, Monitor: trace.MonitorID(1 + r.Intn(2))})
		case 8:
			var ended *th
			for _, u := range threads {
				if u.ended && u.id != t.id {
					ended = u
					break
				}
			}
			if ended != nil {
				emit(trace.Entry{Task: t.id, Op: trace.OpJoin, Target: ended.id})
			}
		case 9:
			live := 0
			for _, u := range threads {
				if u.live {
					live++
				}
			}
			if live > 1 {
				t.live = false
				t.ended = true
				emit(trace.Entry{Task: t.id, Op: trace.OpEnd})
			}
		}
	}
	for _, t := range threads {
		if t.live {
			emit(trace.Entry{Task: t.id, Op: trace.OpEnd})
		}
	}
	return tr
}

func TestCrossValidateAgainstGraphModel(t *testing.T) {
	// Property: on thread-only traces (no locks), the vector-clock
	// model and the happens-before graph agree on every ordering of
	// memory accesses.
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 120; iter++ {
		tr := genThreadTrace(r)
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: generated trace invalid: %v", iter, err)
		}
		g, err := hb.Build(tr, hb.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		c, err := Compute(tr)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		var accesses []int
		for i := range tr.Entries {
			switch tr.Entries[i].Op {
			case trace.OpRead, trace.OpWrite:
				accesses = append(accesses, i)
			}
		}
		for _, i := range accesses {
			for _, j := range accesses {
				if i == j {
					continue
				}
				want := g.Ordered(i, j)
				got := c.Ordered(tr, i, j)
				if want != got {
					t.Fatalf("iter %d: Ordered(%d,%d): graph=%v vclock=%v\nentry i: %s\nentry j: %s",
						iter, i, j, want, got, tr.Entries[i].String(), tr.Entries[j].String())
				}
			}
		}
	}
}
