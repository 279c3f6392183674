package hb

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"cafa/internal/trace"
)

// fuzzGen turns a byte string into a trace that trace.Validator
// accepts: two threads and two loopers (one queue each) to start,
// then one action per input byte — forks, joins, ends, sends and
// sendAtFronts, external events, event begins in any pending order,
// monitors, listeners, RPC and message transactions, scalar padding.
// Any task may be left without an end.
type fuzzGen struct {
	b    *tb
	data []byte
	pos  int

	next     trace.TaskID
	txn      trace.TxnID
	running  []trace.TaskID // begun, not ended; loopers excluded
	forked   []trace.TaskID // threads forked, not begun
	ended    []trace.TaskID // ended threads
	loopers  [2]trace.TaskID
	pending  [2][]fuzzEvent // per looper: events not yet begun
	current  [2]trace.TaskID
	features fuzzFeatures
}

type fuzzEvent struct {
	id  trace.TaskID
	ext bool
}

// fuzzFeatures records which shapes a generated trace contains. The
// last three are shapes of the event-driven closure's rows, which
// rowShapes fills in from a build.
type fuzzFeatures struct {
	innerEntry    bool // join/wait/rpc-ret/perform/recv inside an event
	sendAtFront   bool
	multiSend     bool // two sends to one queue from one task
	unendedTask   bool
	externalEvent bool
	sparseRows    bool // rows reach columns, and every one is a list
	denseRows     bool // rows reach columns, and every one is a window
	latePromotion bool // a row listed after round 0 is a window at the end
}

func (f *fuzzGen) byte() int {
	if f.pos >= len(f.data) {
		return 0
	}
	f.pos++
	return int(f.data[f.pos-1])
}

func pick[T any](f *fuzzGen, s []T) (T, int) {
	k := f.byte() % len(s)
	return s[k], k
}

func (f *fuzzGen) isEvent(t trace.TaskID) bool { return f.b.tr.IsEventTask(t) }

// inner records an entry-side op: inside an event it is an internal
// entry.
func (f *fuzzGen) inner(t trace.TaskID) {
	if f.isEvent(t) {
		f.features.innerEntry = true
	}
}

func fuzzTrace(data []byte) (*trace.Trace, fuzzFeatures) {
	f := &fuzzGen{b: newTB(), data: data, next: 10}
	b := f.b
	b.thread(1, "main")
	b.thread(2, "worker")
	for l := range f.loopers {
		f.loopers[l] = b.thread(trace.TaskID(3+l), "looper")
		b.add(trace.Entry{Task: f.loopers[l], Op: trace.OpBegin})
	}
	b.add(trace.Entry{Task: 1, Op: trace.OpBegin})
	b.add(trace.Entry{Task: 2, Op: trace.OpBegin})
	f.running = []trace.TaskID{1, 2}
	sends := make(map[[2]trace.TaskID]int) // (task, looper) → sends
	for f.pos < len(f.data) {
		op := f.byte() % 13
		l := f.byte() % 2
		q := trace.QueueID(l + 1)
		if len(f.running) == 0 && op != 1 && op != 5 && op != 6 && op != 7 {
			continue
		}
		switch op {
		case 0: // fork
			actor, _ := pick(f, f.running)
			child := b.thread(f.next, "t")
			f.next++
			b.add(trace.Entry{Task: actor, Op: trace.OpFork, Target: child})
			f.forked = append(f.forked, child)
		case 1: // begin a forked thread
			if len(f.forked) == 0 {
				continue
			}
			t, k := pick(f, f.forked)
			f.forked = slices.Delete(f.forked, k, k+1)
			b.add(trace.Entry{Task: t, Op: trace.OpBegin})
			f.running = append(f.running, t)
		case 2: // end a thread
			t, k := pick(f, f.running)
			if f.isEvent(t) {
				continue
			}
			f.running = slices.Delete(f.running, k, k+1)
			b.add(trace.Entry{Task: t, Op: trace.OpEnd})
			f.ended = append(f.ended, t)
		case 3: // join an ended thread
			if len(f.ended) == 0 {
				continue
			}
			actor, _ := pick(f, f.running)
			t, _ := pick(f, f.ended)
			b.add(trace.Entry{Task: actor, Op: trace.OpJoin, Target: t})
			f.inner(actor)
		case 4: // send or sendAtFront
			actor, _ := pick(f, f.running)
			ev := b.event(f.next, "ev", f.loopers[l], q)
			f.next++
			e := trace.Entry{Task: actor, Op: trace.OpSend, Target: ev, Queue: q, Delay: int64(f.byte() % 3)}
			if f.byte()%4 == 0 {
				e.Op, e.Delay = trace.OpSendAtFront, 0
				f.features.sendAtFront = true
			}
			b.add(e)
			f.pending[l] = append(f.pending[l], fuzzEvent{id: ev})
			key := [2]trace.TaskID{actor, f.loopers[l]}
			if sends[key]++; sends[key] > 1 {
				f.features.multiSend = true
			}
		case 5: // external event
			ev := b.event(f.next, "ext", f.loopers[l], q)
			f.next++
			f.pending[l] = append(f.pending[l], fuzzEvent{id: ev, ext: true})
		case 6: // an idle looper begins a pending event
			if f.current[l] != 0 || len(f.pending[l]) == 0 {
				continue
			}
			ev, k := pick(f, f.pending[l])
			f.pending[l] = slices.Delete(f.pending[l], k, k+1)
			b.add(trace.Entry{Task: ev.id, Op: trace.OpBegin, Queue: q, External: ev.ext})
			if ev.ext {
				f.features.externalEvent = true
			}
			f.current[l] = ev.id
			f.running = append(f.running, ev.id)
		case 7: // the running event ends
			ev := f.current[l]
			if ev == 0 {
				continue
			}
			f.current[l] = 0
			f.running = slices.DeleteFunc(f.running, func(t trace.TaskID) bool { return t == ev })
			b.add(trace.Entry{Task: ev, Op: trace.OpEnd})
		case 8: // notify or wait
			actor, _ := pick(f, f.running)
			m := trace.MonitorID(f.byte()%3 + 1)
			if f.byte()%2 == 0 {
				b.add(trace.Entry{Task: actor, Op: trace.OpNotify, Monitor: m})
			} else {
				b.add(trace.Entry{Task: actor, Op: trace.OpWait, Monitor: m})
				f.inner(actor)
			}
		case 9: // register or perform
			actor, _ := pick(f, f.running)
			lid := trace.ListenerID(f.byte()%3 + 1)
			if f.byte()%2 == 0 {
				b.add(trace.Entry{Task: actor, Op: trace.OpRegister, Listener: lid})
			} else {
				b.add(trace.Entry{Task: actor, Op: trace.OpPerform, Listener: lid})
				f.inner(actor)
			}
		case 10: // blocking RPC between two running tasks
			if len(f.running) < 2 {
				continue
			}
			caller, k := pick(f, f.running)
			handler := f.running[(k+1+f.byte()%(len(f.running)-1))%len(f.running)]
			f.txn++
			b.add(trace.Entry{Task: caller, Op: trace.OpRPCCall, Txn: f.txn})
			b.add(trace.Entry{Task: handler, Op: trace.OpRPCHandle, Txn: f.txn})
			b.add(trace.Entry{Task: handler, Op: trace.OpRPCReply, Txn: f.txn})
			b.add(trace.Entry{Task: caller, Op: trace.OpRPCRet, Txn: f.txn})
			f.inner(caller)
			f.inner(handler)
		case 11: // one-way message
			from, _ := pick(f, f.running)
			to, _ := pick(f, f.running)
			f.txn++
			b.add(trace.Entry{Task: from, Op: trace.OpMsgSend, Txn: f.txn})
			b.add(trace.Entry{Task: to, Op: trace.OpMsgRecv, Txn: f.txn})
			f.inner(to)
		case 12: // scalar padding
			actor, _ := pick(f, f.running)
			b.add(trace.Entry{Task: actor, Op: trace.OpWrite, Var: trace.VarID(f.byte() % 4)})
		}
	}
	f.features.unendedTask = len(f.running) > 0 || f.current != [2]trace.TaskID{}
	return b.tr, f.features
}

// fuzzSeeds is the seed corpus: fixed pseudo-random byte strings, then
// three written to shape the closure's rows (see fuzzTrace for the
// byte layout of each action).
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	var seeds [][]byte
	for _, n := range []int{16, 64, 128, 256, 256, 512, 512, 1024, 1024, 2048} {
		s := make([]byte, n)
		rng.Read(s)
		seeds = append(seeds, s)
	}
	return append(seeds,
		// All sparse: main forks a thread, which begins. The fork's row
		// holds the one begin.
		[]byte{0, 0, 0, 1, 0, 0},
		// All dense: main registers a listener, notifies a monitor and
		// forks a thread, which begins, performs and waits. Every exit
		// in main reaches the thread's three entries, past the list
		// limit of a one-word window.
		[]byte{9, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 9, 0, 2, 0, 1, 8, 0, 2, 0, 1},
		// Promoted mid-fixpoint: main sends four events to one looper,
		// which runs them in order. Round 0 leaves the first event's end
		// row empty; queue rule 1 then orders it before the other three.
		[]byte{4, 0, 0, 0, 1, 4, 0, 0, 0, 1, 4, 0, 0, 0, 1, 4, 0, 0, 0, 1,
			6, 0, 0, 7, 0, 6, 0, 0, 7, 0, 6, 0, 0, 7, 0, 6, 0, 0, 7, 0},
	)
}

// rowShapes runs the event-driven fixpoint over ps round by round and
// reports the shapes of its rows: whether any reaches a column, whether
// every such row is a list or every one a window, and whether a row
// that was a list after round 0 ends as a window.
func rowShapes(t testing.TB, ps *Prescan) (sparse, dense, late bool) {
	t.Helper()
	g := newGraph(ps, Options{})
	g.reach = newRowSet(g.ix)
	g.closure()
	g.pending = g.pending[:0]
	listed := make([]bool, len(g.ix.exits))
	for r := range listed {
		_, listed[r] = g.reach.list(r)
	}
	for g.applyDerivedRules() {
		g.incrementalClosure()
	}
	sparse, dense = true, true
	nonEmpty := false
	for r := range listed {
		l, isList := g.reach.list(r)
		if isList && len(l) == 0 {
			continue
		}
		nonEmpty = true
		sparse = sparse && isList
		dense = dense && !isList
		late = late || listed[r] && !isList
	}
	return sparse && nonEmpty, dense && nonEmpty, late
}

// FuzzBuildMatchesReference builds random valid traces with Graph and
// with the node-level reference engine and requires identical Stats,
// adjacency lists (order included) and reachability in both models,
// and Explain paths identical to an unpruned search.
func FuzzBuildMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		tr, _ := fuzzTrace(data)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace is invalid: %v", err)
		}
		ps, err := Scan(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {Conventional: true}} {
			g, ref := assertMatchesReference(t, ps, opts)
			// Every round but the last adds an edge, so the fixpoint
			// needs no round cap.
			if st := g.Stats(); st.Rounds > st.RuleEdges+1 {
				t.Fatalf("opts %+v: %d rounds for %d rule edges", opts, st.Rounds, st.RuleEdges)
			}
			assertExplainMatches(t, g, ref, data)
			assertAncestorMatches(t, g, ref, data)
		}
	})
}

// FuzzConventionalProjection queries the conventional model on random
// entry pairs in random order, after a random batch hint or none, and
// requires Ordered, Concurrent and Explain to agree with the node-level
// reference's full closure.
func FuzzConventionalProjection(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		tr, _ := fuzzTrace(data)
		ps, err := Scan(tr)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Conventional: true}
		g, err := BuildFromScan(ps, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildRef(ps, opts)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		n := tr.Len()
		if rng.Intn(2) == 0 {
			hint := make([]Point, rng.Intn(n+1))
			for k := range hint {
				i := rng.Intn(n)
				hint[k] = Point{Idx: i, Task: tr.Entries[i].Task}
			}
			g.Project(hint)
		}
		for q := 0; q < 64; q++ {
			i, j := rng.Intn(n), rng.Intn(n)
			ij, ji := refOrdered(g, ref, i, j), refOrdered(g, ref, j, i)
			if got := g.Ordered(i, j); got != ij {
				t.Fatalf("Ordered(%d, %d) = %v, reference %v", i, j, got, ij)
			}
			want := i != j && tr.Entries[i].Task != tr.Entries[j].Task && !ij && !ji
			if got := g.Concurrent(i, j); got != want {
				t.Fatalf("Concurrent(%d, %d) = %v, reference %v", i, j, got, want)
			}
			if got, want := g.Explain(i, j), explainUnpruned(g, i, j, ij); !slices.Equal(got, want) {
				t.Fatalf("Explain(%d, %d) = %v, reference %v", i, j, got, want)
			}
		}
	})
}

// refOrdered is Graph.Ordered answered from the reference closure.
func refOrdered(g *Graph, ref *refGraph, i, j int) bool {
	ti, tj := g.tr.Entries[i].Task, g.tr.Entries[j].Task
	switch {
	case i == j:
		return false
	case ti == tj:
		return i < j
	case i > j:
		return false
	}
	u, v := g.anchorAfter(ti, i), g.anchorBefore(tj, j)
	return u >= 0 && v >= 0 && ref.reachable(u, v)
}

// TestFuzzSeedsCover: the seed corpus exercises every shape the rule
// scans special-case.
func TestFuzzSeedsCover(t *testing.T) {
	var all fuzzFeatures
	for _, s := range fuzzSeeds() {
		tr, ft := fuzzTrace(s)
		ps, err := Scan(tr)
		if err != nil {
			t.Fatal(err)
		}
		ft.sparseRows, ft.denseRows, ft.latePromotion = rowShapes(t, ps)
		all.innerEntry = all.innerEntry || ft.innerEntry
		all.sendAtFront = all.sendAtFront || ft.sendAtFront
		all.multiSend = all.multiSend || ft.multiSend
		all.unendedTask = all.unendedTask || ft.unendedTask
		all.externalEvent = all.externalEvent || ft.externalEvent
		all.sparseRows = all.sparseRows || ft.sparseRows
		all.denseRows = all.denseRows || ft.denseRows
		all.latePromotion = all.latePromotion || ft.latePromotion
	}
	if all != (fuzzFeatures{true, true, true, true, true, true, true, true}) {
		t.Fatalf("seed corpus misses a shape: %+v", all)
	}
}

// assertExplainMatches compares Explain with an unpruned BFS on a
// sample of entry pairs drawn from data, then drives one Search the
// way the provenance collector does: many targets from one source,
// then from a second source, then from the first again.
func assertExplainMatches(t *testing.T, g *Graph, ref *refGraph, data []byte) {
	t.Helper()
	n := len(g.tr.Entries)
	for k := 0; k+1 < len(data) && k < 64; k += 2 {
		i, j := int(data[k])*n/256, int(data[k+1])*n/256
		if got, want := g.Explain(i, j), explainUnpruned(g, i, j, refOrdered(g, ref, i, j)); !slices.Equal(got, want) {
			t.Fatalf("Explain(%d, %d) = %v, unpruned search gives %v", i, j, got, want)
		}
	}
	if len(data) < 2 {
		return
	}
	s := g.NewSearch()
	for _, i := range []int{int(data[0]) * n / 256, int(data[1]) * n / 256, int(data[0]) * n / 256} {
		for k := 2; k < len(data) && k < 66; k++ {
			j := int(data[k]) * n / 256
			if got, want := s.Explain(i, j), explainUnpruned(g, i, j, refOrdered(g, ref, i, j)); !slices.Equal(got, want) {
				t.Fatalf("Search.Explain(%d, %d) = %v, unpruned search gives %v", i, j, got, want)
			}
		}
	}
}

// assertAncestorMatches compares CommonAncestor with a scan of every
// node against the reference closure, on entry pairs drawn from data.
// Then it asks for many uses against one free and a later entry of the
// free's task, as the provenance collector does, through both ways
// CommonAncestors answers, against the backward scan.
func assertAncestorMatches(t *testing.T, g *Graph, ref *refGraph, data []byte) {
	t.Helper()
	n := len(g.tr.Entries)
	for k := 0; k+1 < len(data) && k < 64; k += 2 {
		i, j := int(data[k])*n/256, int(data[k+1])*n/256
		want := -1
		for v := len(g.nodes) - 1; v >= 0 && want < 0; v-- {
			if s := g.nodes[v].seq; s < min(i, j) && refOrdered(g, ref, s, i) && refOrdered(g, ref, s, j) {
				want = s
			}
		}
		if got := g.CommonAncestor(i, j); got != want {
			t.Fatalf("CommonAncestor(%d, %d) = %d, reference %d", i, j, got, want)
		}
		if got := ancestorScan(g, i, j); got != want {
			t.Fatalf("backward scan (%d, %d) = %d, reference %d", i, j, got, want)
		}
	}
	if len(data) == 0 {
		return
	}
	free := int(data[0]) * n / 256
	frees := []int{free}
	for j := free + 1; j < n; j++ {
		if g.tr.Entries[j].Task == g.tr.Entries[free].Task {
			frees = append(frees, j)
			break
		}
	}
	var pairs [][2]int
	for k := 1; k < len(data) && k < 65; k++ {
		for _, j := range frees {
			pairs = append(pairs, [2]int{int(data[k]) * n / 256, j})
		}
	}
	byScan := make([]int, len(pairs))
	g.ancestorsByScan(g.ancestorQueries(pairs), byScan)
	for k, got := range g.CommonAncestors(pairs) {
		i, j := pairs[k][0], pairs[k][1]
		want := ancestorScan(g, i, j)
		if got != want || byScan[k] != want {
			t.Fatalf("CommonAncestors pair %d (%d, %d) = %d, by shared scan %d, backward scan %d", k, i, j, got, byScan[k], want)
		}
	}
}

// ancestorScan is CommonAncestor as one backward scan from the
// earlier entry, testing both sides of every node.
func ancestorScan(g *Graph, i, j int) int {
	ei, ej := g.tr.Entries[i].Task, g.tr.Entries[j].Task
	ci, cj := g.columnOf(g.anchorBefore(ei, i)), g.columnOf(g.anchorBefore(ej, j))
	ti, tj := g.tr.Slot(ei), g.tr.Slot(ej)
	for n := len(g.nodes) - 1; n >= 0; n-- {
		if g.nodes[n].seq >= min(i, j) {
			continue
		}
		t, r := g.nodes[n].slot, g.ix.exitAt[n]
		if (t == ti || g.rowHas(r, ci)) && (t == tj || g.rowHas(r, cj)) {
			return g.nodes[n].seq
		}
	}
	return -1
}

// explainUnpruned is Explain's breadth-first search without the
// reaches-dst pruning or the pooled scratch, for a pair the reference
// says is ordered or not.
func explainUnpruned(g *Graph, i, j int, ordered bool) []int {
	if !ordered {
		return nil
	}
	ei, ej := &g.tr.Entries[i], &g.tr.Entries[j]
	if ei.Task == ej.Task {
		return []int{i, j}
	}
	src, dst := g.anchorAfter(ei.Task, i), g.anchorBefore(ej.Task, j)
	if src < 0 || dst < 0 {
		return nil
	}
	prev := make([]int32, len(g.nodes))
	for k := range prev {
		prev[k] = -2
	}
	prev[src] = -1
	queue := []int32{src}
	for len(queue) > 0 && prev[dst] == -2 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if prev[w] == -2 {
				prev[w] = u
				queue = append(queue, w)
			}
		}
	}
	if prev[dst] == -2 {
		return nil
	}
	var rev []int
	for v := dst; v >= 0; v = prev[v] {
		rev = append(rev, g.nodes[v].seq)
	}
	var path []int
	if rev[len(rev)-1] != i {
		path = append(path, i)
	}
	for k := len(rev) - 1; k >= 0; k-- {
		path = append(path, rev[k])
	}
	if path[len(path)-1] != j {
		path = append(path, j)
	}
	return path
}
