package hb

import (
	"testing"

	"cafa/internal/trace"
)

// tb builds hand-written traces for rule tests.
type tb struct {
	tr  *trace.Trace
	seq int64
}

func newTB() *tb { return &tb{tr: trace.New()} }

func (b *tb) thread(id trace.TaskID, name string) trace.TaskID {
	b.tr.DeclareTask(trace.TaskInfo{ID: id, Kind: trace.KindThread, Name: name})
	return id
}

func (b *tb) event(id trace.TaskID, name string, looper trace.TaskID, q trace.QueueID) trace.TaskID {
	b.tr.DeclareTask(trace.TaskInfo{ID: id, Kind: trace.KindEvent, Name: name, Looper: looper, Queue: q})
	return id
}

func (b *tb) add(e trace.Entry) int {
	e.Time = b.seq
	b.seq++
	return b.tr.Append(e)
}

func (b *tb) build(t *testing.T, opts Options) *Graph {
	t.Helper()
	if err := b.tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	g, err := Build(b.tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loopTrace sets up a looper (task 1) and returns the builder.
func loopTrace() *tb {
	b := newTB()
	b.thread(1, "looper")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	return b
}

func TestProgramOrderWithinTask(t *testing.T) {
	b := newTB()
	b.thread(1, "T")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	r1 := b.add(trace.Entry{Task: 1, Op: trace.OpRead, Var: 1})
	r2 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Ordered(r1, r2) || g.Ordered(r2, r1) {
		t.Error("program order within a task must hold")
	}
	if g.Concurrent(r1, r2) {
		t.Error("same-task ops are never concurrent")
	}
	if g.Ordered(r1, r1) {
		t.Error("an op is not ordered before itself")
	}
}

func TestEventsOnSameLooperUnorderedByDefault(t *testing.T) {
	// Two events on one looper with unrelated sends from two threads:
	// the model must NOT impose an order (the paper's core departure
	// from thread-based detectors)… except via queue rule 1 if the
	// sends are ordered. Here the sends are concurrent.
	b := loopTrace()
	b.thread(2, "S1")
	b.thread(3, "S2")
	b.event(4, "evA", 1, 1)
	b.event(5, "evB", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpSend, Target: 5, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	wA := b.add(trace.Entry{Task: 4, Op: trace.OpWrite, Var: 9})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 5, Op: trace.OpBegin, Queue: 1})
	wB := b.add(trace.Entry{Task: 5, Op: trace.OpWrite, Var: 9})
	b.add(trace.Entry{Task: 5, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TasksConcurrent(4, 5) {
		t.Error("events with unordered sends must be concurrent")
	}
	if !g.Concurrent(wA, wB) {
		t.Error("writes in concurrent events must be concurrent")
	}
	// The conventional baseline DOES order them (total event order).
	gc := b.build(t, Options{Conventional: true})
	if gc.TasksConcurrent(4, 5) {
		t.Error("conventional model must totally order looper events")
	}
	if gc.Concurrent(wA, wB) {
		t.Error("conventional model must order the writes")
	}
}

func TestFigure4aAtomicityRule(t *testing.T) {
	// Event A forks thread T; T registers listener L; event B performs
	// L. fork(A,T) ≺ perform(B,L) ⇒ (atomicity) end(A) ≺ begin(B).
	b := loopTrace()
	b.thread(2, "S1")
	b.thread(3, "S2")
	b.event(4, "A", 1, 1)
	b.thread(5, "T")
	b.event(6, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 3, Op: trace.OpSend, Target: 6, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpFork, Target: 5})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 5, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 5, Op: trace.OpRegister, Listener: 9})
	b.add(trace.Entry{Task: 5, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 6, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 6, Op: trace.OpPerform, Listener: 9})
	b.add(trace.Entry{Task: 6, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TaskOrdered(4, 6) {
		t.Error("atomicity rule must derive A ≺ B")
	}
	if g.TaskOrdered(6, 4) {
		t.Error("B must not precede A")
	}
	if g.Stats().RuleEdges == 0 {
		t.Error("expected derived rule edges")
	}
}

func TestFigure4bFIFOSameDelay(t *testing.T) {
	// One thread sends A then B with equal delays: rule 1 orders A ≺ B.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1, Delay: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TaskOrdered(3, 4) {
		t.Error("rule 1 must order A ≺ B for equal delays")
	}
}

func TestFigure4cDelayBreaksOrder(t *testing.T) {
	// A sent with delay 5, B sent later with delay 0: B may run first,
	// so no order can be derived (and in this trace B does run first).
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 5})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TasksConcurrent(3, 4) {
		t.Error("rule 1 must not fire when the earlier send has a larger delay")
	}
}

func TestFigure4dSendAtFrontFromSameLooperEvent(t *testing.T) {
	// Event C (on the same looper) performs send(A) then
	// sendAtFront(B). Atomicity gives end(C) ≺ begin(A); then rule 2
	// derives B ≺ A.
	b := loopTrace()
	b.event(2, "C", 1, 1)
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin, Queue: 1, External: true})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TaskOrdered(4, 3) {
		t.Error("rule 2 must derive B ≺ A when sendAtFront ≺ begin(A) is guaranteed")
	}
	if g.TaskOrdered(3, 4) {
		t.Error("A must not precede B")
	}
	if g.Stats().Rounds < 2 {
		t.Errorf("figure 4d needs a multi-round fixpoint, got %d rounds", g.Stats().Rounds)
	}
}

func TestFigure4eSendAtFrontFromThreadNoOrder(t *testing.T) {
	// A thread (not the looper) sends A then sendAtFront B: B's
	// enqueue is not guaranteed to precede begin(A), so no order. In
	// this trace B happens to run first.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TasksConcurrent(3, 4) {
		t.Error("figure 4e: no order must be derived")
	}
}

func TestFigure4fSendAtFrontAfterABegan(t *testing.T) {
	// Same as 4e but A executes before B ever enters the queue.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TasksConcurrent(3, 4) {
		t.Error("figure 4f: no order must be derived")
	}
}

func TestRule3FrontThenSend(t *testing.T) {
	// sendAtFront(A) ≺ send(B) in one thread ⇒ A ≺ B always.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 3, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TaskOrdered(3, 4) {
		t.Error("rule 3 must order sendAtFront(A) before later send(B)")
	}
}

func TestRule4FrontFrontFromLooperEvent(t *testing.T) {
	// Event C: sendAtFront(A) then sendAtFront(B). Fronts are LIFO, so
	// B runs first; rule 4 derives B ≺ A.
	b := loopTrace()
	b.event(2, "C", 1, 1)
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin, Queue: 1, External: true})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 3, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpSendAtFront, Target: 4, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.TaskOrdered(4, 3) {
		t.Error("rule 4 must derive B ≺ A for LIFO fronts from a looper event")
	}
}

func TestForkJoinRule(t *testing.T) {
	b := newTB()
	b.thread(1, "main")
	b.thread(2, "child")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpFork, Target: 2})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpJoin, Target: 2})
	w3 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})

	g := b.build(t, Options{})
	if !g.Ordered(w1, w2) {
		t.Error("write before fork must precede child's write")
	}
	if !g.Ordered(w2, w3) {
		t.Error("child's write must precede write after join")
	}
}

func TestNoForkNoOrder(t *testing.T) {
	b := newTB()
	b.thread(1, "a")
	b.thread(2, "b")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Concurrent(w1, w2) {
		t.Error("unsynchronized threads must be concurrent")
	}
}

func TestSignalWaitRule(t *testing.T) {
	b := newTB()
	b.thread(1, "notifier")
	b.thread(2, "waiter")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpNotify, Monitor: 5})
	b.add(trace.Entry{Task: 2, Op: trace.OpWait, Monitor: 5})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Ordered(w1, w2) {
		t.Error("notify must order the waiter's continuation")
	}
}

func TestUnlockLockNoOrder(t *testing.T) {
	// The model deliberately does not order unlock → lock (§3.1).
	b := newTB()
	b.thread(1, "a")
	b.thread(2, "b")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 1, Op: trace.OpLock, Lock: 9})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpUnlock, Lock: 9})
	b.add(trace.Entry{Task: 2, Op: trace.OpLock, Lock: 9})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpUnlock, Lock: 9})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Concurrent(w1, w2) {
		t.Error("critical sections must not be happens-before ordered by locks")
	}
}

func TestExternalInputRule(t *testing.T) {
	b := loopTrace()
	b.event(2, "touch1", 1, 1)
	b.event(3, "touch2", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin, Queue: 1, External: true})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1, External: true})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.TaskOrdered(2, 3) {
		t.Error("external events must be conservatively chained")
	}
}

func TestRPCAndMsgRules(t *testing.T) {
	b := newTB()
	b.thread(1, "client")
	b.thread(2, "binder")
	b.thread(3, "pipeRecv")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpRPCCall, Txn: 7})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpRPCHandle, Txn: 7})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpMsgSend, Txn: 8})
	b.add(trace.Entry{Task: 2, Op: trace.OpRPCReply, Txn: 7})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpRPCRet, Txn: 7})
	w3 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpMsgRecv, Txn: 8})
	w4 := b.add(trace.Entry{Task: 3, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Ordered(w1, w2) {
		t.Error("rpc call must order client work before handler")
	}
	if !g.Ordered(w2, w3) {
		t.Error("rpc reply must order handler before client continuation")
	}
	if !g.Ordered(w2, w4) {
		t.Error("pipe message must order sender before receiver")
	}
	if g.Ordered(w3, w4) || g.Ordered(w4, w3) {
		t.Error("client continuation and pipe receiver are unrelated")
	}
}

func TestListenerRule(t *testing.T) {
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "ev", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpRegister, Listener: 4})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpPerform, Listener: 4})
	w2 := b.add(trace.Entry{Task: 3, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if !g.Ordered(w1, w2) {
		t.Error("register must precede perform")
	}
}

func TestOrderedConsistentWithTraceOrder(t *testing.T) {
	// Ordered(i, j) must be false whenever i > j, for any pair.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "ev", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	n := len(b.tr.Entries)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if g.Ordered(i, j) {
				t.Fatalf("Ordered(%d, %d) true against trace order", i, j)
			}
		}
	}
}

func TestStats(t *testing.T) {
	b := loopTrace()
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	st := g.Stats()
	if st.Entries != 2 || st.Nodes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if g.Trace() != b.tr {
		t.Error("Trace() identity")
	}
}
