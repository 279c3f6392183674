package hb

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"cafa/internal/trace"
)

func TestExplainForkChain(t *testing.T) {
	b := newTB()
	b.thread(1, "main")
	b.thread(2, "child")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpFork, Target: 2})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})

	path := g.Explain(w1, w2)
	if len(path) < 3 {
		t.Fatalf("path = %v, want at least write → fork → begin → write", path)
	}
	if path[0] != w1 || path[len(path)-1] != w2 {
		t.Errorf("path endpoints = %d..%d, want %d..%d", path[0], path[len(path)-1], w1, w2)
	}
	// The path must pass through the fork.
	sawFork := false
	for _, idx := range path {
		if b.tr.Entries[idx].Op == trace.OpFork {
			sawFork = true
		}
	}
	if !sawFork {
		t.Errorf("path %v does not pass through the fork", path)
	}
	out := g.FormatPath(path)
	if !strings.Contains(out, "fork") || !strings.Contains(out, "≺") {
		t.Errorf("FormatPath = %q", out)
	}
	// Unordered pair: no path.
	if p := g.Explain(w2, w1); p != nil {
		t.Errorf("reverse path = %v, want nil", p)
	}
	if g.FormatPath(nil) == "" {
		t.Error("FormatPath(nil) should explain unordered")
	}
}

func TestExplainSameTask(t *testing.T) {
	b := newTB()
	b.thread(1, "t")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	a := b.add(trace.Entry{Task: 1, Op: trace.OpRead, Var: 1})
	c := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	path := g.Explain(a, c)
	if len(path) != 2 || path[0] != a || path[1] != c {
		t.Errorf("same-task path = %v", path)
	}
}

func TestExplainThroughDerivedEdge(t *testing.T) {
	// Figure 4b-style: the derived end(A) → begin(B) edge must be
	// explainable.
	b := loopTrace()
	b.thread(2, "T")
	b.event(3, "A", 1, 1)
	b.event(4, "B", 1, 1)
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 3, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpSend, Target: 4, Queue: 1, Delay: 0})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin, Queue: 1})
	wA := b.add(trace.Entry{Task: 3, Op: trace.OpWrite, Var: 9})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 4, Op: trace.OpBegin, Queue: 1})
	wB := b.add(trace.Entry{Task: 4, Op: trace.OpWrite, Var: 9})
	b.add(trace.Entry{Task: 4, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})
	path := g.Explain(wA, wB)
	if path == nil {
		t.Fatal("rule-1-ordered writes must be explainable")
	}
	if path[0] != wA || path[len(path)-1] != wB {
		t.Errorf("path endpoints wrong: %v", path)
	}
}

func TestCommonAncestorForkSiblings(t *testing.T) {
	b := newTB()
	b.thread(1, "main")
	b.thread(2, "childA")
	b.thread(3, "childB")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	fork1 := b.add(trace.Entry{Task: 1, Op: trace.OpFork, Target: 2})
	fork2 := b.add(trace.Entry{Task: 1, Op: trace.OpFork, Target: 3})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 3, Op: trace.OpBegin})
	w2 := b.add(trace.Entry{Task: 3, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 3, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	g := b.build(t, Options{})

	if !g.Concurrent(w1, w2) {
		t.Fatal("sibling writes should be concurrent")
	}
	ca := g.CommonAncestor(w1, w2)
	if ca < 0 {
		t.Fatal("fork siblings must have a common ancestor")
	}
	if !g.Ordered(ca, w1) || !g.Ordered(ca, w2) {
		t.Fatalf("ancestor %d not ordered before both writes", ca)
	}
	// The nearest ancestor is the second fork (it precedes childB's
	// begin and, via program order through fork1, childA's write).
	if ca != fork2 && ca != fork1 {
		t.Errorf("ancestor = %d, want one of the forks (%d, %d)", ca, fork1, fork2)
	}
	// Both derivations from the ancestor must exist.
	if g.Explain(ca, w1) == nil || g.Explain(ca, w2) == nil {
		t.Error("no derivation from common ancestor to a racy operation")
	}
}

func TestCommonAncestorUnrelated(t *testing.T) {
	b := newTB()
	b.thread(1, "a")
	b.thread(2, "b")
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	w1 := b.add(trace.Entry{Task: 1, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	w2 := b.add(trace.Entry{Task: 2, Op: trace.OpWrite, Var: 1})
	b.add(trace.Entry{Task: 1, Op: trace.OpEnd})
	b.add(trace.Entry{Task: 2, Op: trace.OpEnd})
	g := b.build(t, Options{})
	if ca := g.CommonAncestor(w1, w2); ca != -1 {
		t.Errorf("unrelated threads: ancestor = %d, want -1", ca)
	}
}

// TestExplainConcurrent: Explain's pooled scratch is safe to share
// across goroutines, and reuse leaves no stale state behind.
func TestExplainConcurrent(t *testing.T) {
	tr, _ := fuzzTrace(fuzzSeeds()[9])
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Entries)
	want := make([][]int, n)
	for i := range want {
		j := (i*7 + n/2) % n
		want[i] = explainUnpruned(g, i, j, g.Ordered(i, j))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if got := g.Explain(i, (i*7+n/2)%n); !slices.Equal(got, want[i]) {
					t.Errorf("Explain(%d, %d) = %v, want %v", i, (i*7+n/2)%n, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
