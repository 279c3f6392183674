package detect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/asm"
	"cafa/internal/dvm"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

func TestCallStackReconstruction(t *testing.T) {
	src := `
.method leaf(h) regs=3
    iget v1, h, ptr
    sput v1, out
    return-void
.end

.method mid(h) regs=2
    invoke-static leaf, h
    return-void
.end

.method top(h) regs=2
    invoke-static mid, h
    return-void
.end
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	s := sim.NewSystem(p, sim.Config{Tracer: col, Seed: 1})
	h := s.Heap().New("H")
	pay := s.Heap().New("P")
	h.Set(p.FieldID("ptr"), dvm.Obj(pay.ID))
	if _, err := s.StartThread("t", "top", dvm.Obj(h.ID)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Find the pointer read inside leaf.
	var readIdx = -1
	for i := range col.T.Entries {
		if col.T.Entries[i].Op == trace.OpPtrRead {
			readIdx = i
		}
	}
	if readIdx < 0 {
		t.Fatal("no pointer read in trace")
	}
	stack := stackAt(col.T, readIdx)
	got := FormatStack(col.T, stack)
	if !strings.Contains(got, "mid") || !strings.HasSuffix(got, "leaf") {
		t.Errorf("stack = %q, want ... mid > leaf", got)
	}
	if stackAt(col.T, -1) != nil {
		t.Error("out-of-range index should yield nil")
	}
	if FormatStack(col.T, nil) == "" {
		t.Error("empty stack should render a placeholder")
	}
}

func TestDescribeWithContext(t *testing.T) {
	res, g := pipeline(t, mytracksSrc, Options{}, buildMyTracks(t))
	if len(res.Races) != 1 {
		t.Fatal("expected the MyTracks race")
	}
	out := res.Races[0].DescribeWithContext(g.Trace())
	if !strings.Contains(out, "use context:") || !strings.Contains(out, "free context:") {
		t.Errorf("DescribeWithContext = %q", out)
	}
	if !strings.Contains(out, "onServiceConnected") {
		t.Errorf("use context missing handler name: %q", out)
	}
}

// TestCallStackEdgeCases covers the reconstruction corners: an entry
// with no enclosing call, a trace truncated mid-call (an invoke whose
// return was never logged), and a stack deeper than the render cap.
func TestCallStackEdgeCases(t *testing.T) {
	t.Run("no enclosing call", func(t *testing.T) {
		tr := trace.New()
		tr.Methods[7] = "handler"
		tr.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
		idx := tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 7})
		stack := stackAt(tr, idx)
		if len(stack) != 1 || stack[0] != 7 {
			t.Fatalf("stack = %v, want just the entry's own method", stack)
		}
		if got := FormatStack(tr, stack); got != "handler" {
			t.Errorf("FormatStack = %q, want %q", got, "handler")
		}
	})

	t.Run("no method at all", func(t *testing.T) {
		tr := trace.New()
		tr.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
		idx := tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
		if got := FormatStack(tr, stackAt(tr, idx)); got != "(no context)" {
			t.Errorf("FormatStack = %q, want placeholder", got)
		}
	})

	t.Run("truncated mid-call", func(t *testing.T) {
		// The trace ends inside `inner`: invokes logged, returns never
		// reached. The open frames must all be reported.
		tr := trace.New()
		tr.Methods[1], tr.Methods[2], tr.Methods[3] = "outer", "mid", "inner"
		tr.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
		tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 1})
		tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 2})
		tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 3})
		idx := tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 3})
		got := FormatStack(tr, stackAt(tr, idx))
		if got != "outer > mid > inner" {
			t.Errorf("FormatStack = %q, want %q", got, "outer > mid > inner")
		}
		// Unbalanced return on an empty stack must not panic.
		tr2 := trace.New()
		tr2.Methods[4] = "late"
		tr2.Append(trace.Entry{Task: 1, Op: trace.OpReturn})
		idx2 := tr2.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 4})
		if got := FormatStack(tr2, stackAt(tr2, idx2)); got != "late" {
			t.Errorf("FormatStack after stray return = %q, want %q", got, "late")
		}
	})

	t.Run("deeper than render cap", func(t *testing.T) {
		tr := trace.New()
		depth := MaxStackFrames + 3
		tr.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
		for d := 0; d < depth; d++ {
			m := trace.MethodID(d + 1)
			tr.Methods[m] = fmt.Sprintf("f%02d", d)
			tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: m})
		}
		idx := tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: trace.MethodID(depth)})
		stack := stackAt(tr, idx)
		if len(stack) != depth {
			t.Fatalf("stack depth = %d, want %d", len(stack), depth)
		}
		got := FormatStack(tr, stack)
		if !strings.HasPrefix(got, "(+3 outer) > ") {
			t.Errorf("FormatStack = %q, want elision prefix for 3 outer frames", got)
		}
		if strings.Count(got, " > ") != MaxStackFrames {
			t.Errorf("FormatStack = %q, want %d rendered frames", got, MaxStackFrames)
		}
		if !strings.HasSuffix(got, fmt.Sprintf("f%02d", depth-1)) {
			t.Errorf("FormatStack = %q, must keep the innermost frame", got)
		}
	})
}

// stackAt is the stack at one index through CallStacks.
func stackAt(tr *trace.Trace, idx int) []trace.MethodID {
	return CallStacks(tr, []int{idx})[idx]
}

// callStackRef is the per-index walk CallStacks replaced: it rescans
// the trace from entry 0 for every index. It is the reference the
// one-sweep reconstruction must match.
func callStackRef(tr *trace.Trace, idx int) []trace.MethodID {
	if idx < 0 || idx >= len(tr.Entries) {
		return nil
	}
	task := tr.Entries[idx].Task
	var stack []trace.MethodID
	for i := 0; i < idx; i++ {
		e := &tr.Entries[i]
		if e.Task != task {
			continue
		}
		switch e.Op {
		case trace.OpInvoke:
			stack = append(stack, e.Method)
		case trace.OpReturn:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if m := tr.Entries[idx].Method; m != 0 {
		if len(stack) == 0 || stack[len(stack)-1] != m {
			stack = append(stack, m)
		}
	}
	return stack
}

// sameStack compares stacks, treating nil and empty alike.
func sameStack(a, b []trace.MethodID) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// assertCallStacksMatchRef checks CallStacks(tr, idxs) against the
// per-index reference at every index, including the ones CallStacks
// must skip.
func assertCallStacksMatchRef(t *testing.T, tr *trace.Trace, idxs []int) {
	t.Helper()
	got := CallStacks(tr, idxs)
	for _, idx := range idxs {
		want := callStackRef(tr, idx)
		gs, ok := got[idx]
		if inRange := idx >= 0 && idx < len(tr.Entries); ok != inRange {
			t.Errorf("index %d: present in CallStacks = %v, want %v", idx, ok, inRange)
		}
		if !sameStack(gs, want) {
			t.Errorf("index %d: CallStacks %v, reference %v", idx, gs, want)
		}
	}
}

// extract runs the Extractor over a materialized trace.
func extract(tr *trace.Trace) *extraction {
	x := NewExtractor(tr, nil)
	if err := tr.Sweep(func(i int, e *trace.Entry, s int32) error { x.Consume(i, e, s); return nil }); err != nil {
		panic(err) // the app models declare every task
	}
	return x.ex
}

// TestCallStacksMatchReferenceOnApps sweeps the stacks at every
// extracted use deref and free of the ten app models in one pass and
// compares each with the per-index reference walk. The uses and frees
// all sit in a task's root handler, so the sweep also asks for every
// invoke, the entry after it, and every 97th entry.
func TestCallStacksMatchReferenceOnApps(t *testing.T) {
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		ex := extract(col.T)
		var idxs []int
		for _, u := range ex.uses {
			idxs = append(idxs, u.DerefIdx)
		}
		for _, f := range ex.frees {
			idxs = append(idxs, f.Idx)
		}
		for i, e := range col.T.Entries {
			if e.Op == trace.OpInvoke || i%97 == 0 {
				idxs = append(idxs, i, i+1)
			}
		}
		assertCallStacksMatchRef(t, col.T, idxs)
	}
}

// TestCallStacksHandTraces covers the sweep's corners: unbalanced
// returns, index 0, duplicate indexes, out-of-range indexes,
// interleaved tasks, and invoke/return entries queried themselves
// (their own step must not be live yet).
func TestCallStacksHandTraces(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 5}) // index 0, no begin
	tr.Append(trace.Entry{Task: 1, Op: trace.OpReturn, Method: 9})        // stray return
	tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 1})
	tr.Append(trace.Entry{Task: 2, Op: trace.OpInvoke, Method: 7})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 2})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 2})
	tr.Append(trace.Entry{Task: 2, Op: trace.OpReturn, Method: 7})
	tr.Append(trace.Entry{Task: 2, Op: trace.OpReturn, Method: 7}) // unbalanced
	tr.Append(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1, Method: 8})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpReturn, Method: 2})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 3}) // queried invoke: its own push is not yet live
	tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpInvoke, Method: 3}) // recursive: the stack so far ends in 3 already
	tr.Append(trace.Entry{Task: 1, Op: trace.OpReturn})            // a return naming no method
	tr.Append(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1, Method: 3})
	all := make([]int, len(tr.Entries))
	for i := range all {
		all[i] = i
	}
	assertCallStacksMatchRef(t, tr, all)
	assertCallStacksMatchRef(t, tr, []int{0})
	assertCallStacksMatchRef(t, tr, []int{5, 5, 0, 5, 11, 0})
	assertCallStacksMatchRef(t, tr, []int{-1, len(tr.Entries), 1 << 30, 8})
	if got := CallStacks(tr, nil); len(got) != 0 {
		t.Errorf("CallStacks(nil) = %v, want empty", got)
	}
	if got := CallStacks(trace.New(), []int{0}); len(got) != 0 {
		t.Errorf("CallStacks on an empty trace = %v, want empty", got)
	}
	for idx, want := range map[int][]trace.MethodID{5: {1, 2}, 12: {1, 3}, 13: {1, 3, 3}, 14: {1, 3}} {
		if got := stackAt(tr, idx); !reflect.DeepEqual(got, want) {
			t.Errorf("stack at %d = %v, want %v", idx, got, want)
		}
	}
}
