// Package hb implements the paper's causality model for event-driven
// Android executions (§3): it builds the happens-before graph of a
// trace and answers ordering queries between arbitrary operations.
//
// The model's rules:
//
//   - program order within a task (but NOT between events of the same
//     looper thread, and NOT between unlock → lock);
//   - fork-join and signal-and-wait;
//   - event listener: register(t,l) ≺ perform(e,l);
//   - send: send(t,e,d) ≺ begin(e), sendAtFront(t,e) ≺ begin(e);
//   - external input: external events are conservatively chained;
//   - IPC: rpcCall ≺ rpcHandle, rpcReply ≺ rpcRet, msgSend ≺ msgRecv;
//   - atomicity: if begin(e1) ≺ end(e2) for events of one looper,
//     then end(e1) ≺ begin(e2);
//   - event queue rules 1–4 over ordered sends to the same queue.
//
// The last two rule groups depend on already-derived reachability, so
// the event-driven model iterates rule application and transitive
// closure to a fixpoint. The closure is computed in full once;
// subsequent rounds propagate only the reachability contributed by
// edges added since the previous round (closure over a DAG is monotone
// in its edge set, so the incremental result is bit-identical to a
// recompute).
//
// Because every rule only ever concludes orderings that actually held
// in the traced execution, the happens-before relation is consistent
// with trace order; the graph is a DAG whose topological order is the
// entry sequence. Its nodes are "reduced nodes" (task begins/ends plus
// cross-edge endpoints); arbitrary operations resolve through their
// nearest reduced anchors.
//
// The closure keeps only rows and columns where paths cross tasks (see
// anchorIndex): one row per exit (task end or source of a cross-task
// base edge) and one column per entry (task begin or target of a
// cross-task base edge). Within a task, reachability is program order;
// across tasks, u reaches v iff the row of u's first exit at or after
// u has the column of v's last entry at or before v. Every edge the
// fixpoint adds runs end → begin, so the layout is fixed by the
// prescan. Each row is an adaptive container (rowSet): a short sorted
// column list, as on the app models, where events on one looper are
// mostly unordered, or a bit window once the row is dense, as on the
// queue-heavy synthetic shapes. The atomicity and queue rules walk a
// list row by its columns and a window row a word at a time, and add
// edges in the order the per-pair loops would.
//
// The conventional model runs no fixpoint: its looper chain already
// orders every pair of one looper's events in trace order, so the
// atomicity and queue rules, which only conclude orders between events
// of one looper, never add an edge to it. It keeps no full closure
// either. Its reachability is projected onto the columns queries name
// (see projection), which the detector announces in one batch.
//
// The single trace scan (node collection plus model-independent base
// edges) is factored into Scan/Prescan so the event-driven and
// conventional variants of one trace share it; BuildFromScan builds a
// graph over a shared Prescan and is safe to call concurrently.
package hb

import (
	"math/bits"
	"slices"
	"sync"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Graph-construction observability (internal/obs). Counts accumulate
// once per build (from the already-maintained per-graph tallies), and
// the worklist histogram observes the pending-edge batch consumed by
// each incremental-closure round — the shape of the fixpoint tail.
var (
	cBuilds           = obs.NewCounter("hb_builds_total")
	cBaseEdges        = obs.NewCounter("hb_base_edges_total")
	cRuleEdges        = obs.NewCounter("hb_rule_edges_total")
	cFixpointRounds   = obs.NewCounter("hb_fixpoint_rounds_total")
	hWorklistLen      = obs.NewHistogram("hb_closure_worklist_len")
	hClosureRoundsPer = obs.NewHistogram("hb_rounds_per_build")
)

// Options configures graph construction.
type Options struct {
	// Conventional builds the thread-based baseline model of §6.3
	// instead: a total order over all events of each looper thread
	// (what a conventional race detector assumes). Lock edges are not
	// added in either mode, matching the paper's comparator. The build
	// is the adjacency alone; reachability is computed per queried
	// column, in batches announced through Graph.Project.
	Conventional bool
}

// node is one reduced node of the graph.
type node struct {
	seq  int   // entry index in the trace
	slot int32 // its task's slot in the trace's task table
}

type sendInfo struct {
	node  int32 // reduced node id of the send entry
	event trace.TaskID
	delay int64
	front bool
}

// Graph is the happens-before graph of one trace. It reads the node
// set, the per-task node lists and the anchor index straight from the
// Prescan it was built over.
type Graph struct {
	*Prescan
	opts Options
	adj  [][]int32
	// The event-driven model keeps its closure in reach, one row per
	// exit of the Prescan's index; the conventional model keeps proj,
	// its closure projected onto queried columns.
	reach *rowSet
	proj  *projection

	// pending are edges added since the last closure; the next
	// (incremental) closure round consumes them. changed is that
	// round's per-row dirty scratch, hits the queue scan's per-send
	// scratch and fired the atomicity scan's, all reused across rounds.
	pending []edge
	changed []bool
	hits    []uint64
	fired   []int32

	// bfsPool recycles Explain's BFS scratch; byCol is
	// CommonAncestor's column → rows index (see columnRows).
	bfsPool   sync.Pool
	byColOnce sync.Once
	byColOff  []int32
	byCol     []int32

	rounds    int
	baseEdges int
	ruleEdges int
}

// Build constructs the happens-before graph for a trace.
func Build(tr *trace.Trace, opts Options) (*Graph, error) {
	ps, err := Scan(tr)
	if err != nil {
		return nil, err
	}
	return BuildFromScan(ps, opts)
}

// BuildFromScan constructs a graph over a shared Prescan. Multiple
// calls over one Prescan (e.g. the event-driven and conventional
// models) are safe: the Prescan is read-only. The error result is
// reserved for a work budget; no build fails today.
func BuildFromScan(ps *Prescan, opts Options) (*Graph, error) {
	g := newGraph(ps, opts)
	if opts.Conventional {
		// Conventional baseline: total event order per looper. The
		// rules would add nothing to it (see the package comment).
		for l := range int32(len(ps.tr.Tasks)) {
			evs := ps.eventsOf(l)
			for i := 1; i < len(evs); i++ {
				if g.addEdge(ps.ends[evs[i-1]], ps.begins[evs[i]]) {
					g.baseEdges++
				}
			}
		}
		g.pending = nil
		g.rounds = 1
		g.proj = new(projection)
	} else {
		g.fixpoint()
	}
	cBuilds.Inc()
	cBaseEdges.Add(int64(g.baseEdges))
	cRuleEdges.Add(int64(g.ruleEdges))
	cFixpointRounds.Add(int64(g.rounds))
	hClosureRoundsPer.Observe(int64(g.rounds))
	return g, nil
}

// newGraph returns a graph over ps holding its base edges.
func newGraph(ps *Prescan, opts Options) *Graph {
	g := &Graph{Prescan: ps, opts: opts}
	g.adj = make([][]int32, len(g.nodes))
	for u := range g.adj {
		g.adj[u] = ps.baseSuccOf(u)
	}
	g.baseEdges = len(ps.baseSucc)
	return g
}

// fixpoint alternates closure and rule application until no rule
// adds an edge. It always terminates: every round but the last adds at
// least one end → begin edge, and a trace has finitely many, so
// Rounds ≤ RuleEdges+1.
func (g *Graph) fixpoint() {
	g.reach = newRowSet(g.ix)
	for round := 0; ; round++ {
		g.rounds = round + 1
		if round == 0 {
			g.closure()
			g.pending = g.pending[:0]
		} else {
			g.incrementalClosure()
		}
		if !g.applyDerivedRules() {
			return
		}
	}
}

// isReducedOp reports whether an operation is a cross-edge endpoint.
func isReducedOp(op trace.Op) bool {
	switch op {
	case trace.OpBegin, trace.OpEnd, trace.OpFork, trace.OpJoin,
		trace.OpWait, trace.OpNotify, trace.OpSend, trace.OpSendAtFront,
		trace.OpRegister, trace.OpPerform,
		trace.OpRPCCall, trace.OpRPCHandle, trace.OpRPCReply, trace.OpRPCRet,
		trace.OpMsgSend, trace.OpMsgRecv:
		return true
	default:
		return false
	}
}

// addEdge inserts u → v (u, v are node ids). Edges always point
// forward in trace order; violations indicate a malformed trace and
// are dropped. Every caller passes an end as u and a begin as v, so
// the edge runs exit → entry and the anchor index stays valid.
func (g *Graph) addEdge(u, v int32) bool {
	if u < 0 || v < 0 || u == v {
		return false
	}
	if g.nodes[u].seq >= g.nodes[v].seq {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.pending = append(g.pending, edge{u, v})
	return true
}

// closure computes every exit row in full. Exits are in topological
// (trace) order, so one reverse sweep suffices. An exit's row is
// itself (when it is also an entry) plus what each successor reaches.
func (g *Graph) closure() {
	ix := g.ix
	for r := len(ix.exits) - 1; r >= 0; r-- {
		x := ix.exits[r]
		if ix.isEntry(x) {
			g.reach.add(r, int(ix.entryAt[x]))
		}
		for _, w := range g.adj[x] {
			g.orReach(r, w)
		}
	}
}

// orReach ors into row r the entries node w reaches — the entries of
// w's task from w up to its first exit at or after w, then that
// exit's row — and reports whether row r gained any bit. The exit
// comes after w, so its row is final when the reverse sweeps call
// this.
func (g *Graph) orReach(r int, w int32) bool {
	ix := g.ix
	ch := false
	for t := w; t >= 0; t = ix.next[t] {
		if ix.isEntry(t) && g.reach.add(r, int(ix.entryAt[t])) {
			ch = true
		}
		if ix.isExit(t) {
			return g.reach.or(r, int(ix.exitAt[t])) || ch
		}
	}
	return ch
}

// incrementalClosure folds the pending edges into the closure
// without recomputing it. For a new edge u → v only u and exits that
// reach u can gain reachability, so one reverse sweep from the highest
// pending source suffices: a row is re-ORed only when it has a pending
// edge or a successor whose exit row just changed. Rows ascend in
// trace (= topological) order, so successors are always finalized
// first, and because closure is monotone in the edge set the result
// is bit-identical to a full recompute.
func (g *Graph) incrementalClosure() {
	if len(g.pending) == 0 {
		return
	}
	hWorklistLen.Observe(int64(len(g.pending)))
	// Bucket the pending edges by descending source so the reverse
	// sweep consumes them in order — no per-node lookup structure.
	// Every pending source is an end, hence an exit.
	slices.SortFunc(g.pending, func(a, b edge) int { return int(b.u) - int(a.u) })
	ix := g.ix
	maxRow := int(ix.exitAt[g.pending[0].u])
	if cap(g.changed) < maxRow+1 {
		g.changed = make([]bool, maxRow+1)
	}
	changed := g.changed[:maxRow+1]
	clear(changed)
	k := 0
	for r := maxRow; r >= 0; r-- {
		x := ix.exits[r]
		ch := false
		for ; k < len(g.pending) && g.pending[k].u == x; k++ {
			if g.orReach(r, g.pending[k].v) {
				ch = true
			}
		}
		for _, w := range g.adj[x] {
			if s := int(ix.exitAt[w]); s >= 0 && s <= maxRow && changed[s] && g.reach.or(r, s) {
				ch = true
			}
		}
		changed[r] = ch
	}
	g.pending = g.pending[:0]
}

// reachable reports node-level reachability (reflexive): program order
// within a task; across tasks, the row of u's next exit at the column
// of v's last entry.
func (g *Graph) reachable(u, v int32) bool {
	if g.nodes[u].slot == g.nodes[v].slot {
		return u <= v
	}
	return g.rowHas(g.ix.exitAt[u], g.ix.entryAt[v])
}

// rowHas reports whether exit row r reaches entry column c; either
// may be -1 (none), which reaches nothing.
func (g *Graph) rowHas(r, c int32) bool {
	if r < 0 || c < 0 {
		return false
	}
	if g.reach != nil {
		return g.reach.has(int(r), int(c))
	}
	return g.projected(r, c)
}

// applyDerivedRules applies the atomicity rule and the four event
// queue rules, returning whether any new edge was added. Both read a
// list row by its columns and a window row a word at a time instead of
// testing every pair, and visit the pairs that fire in the order the
// pair loops would (per looper by ascending i then j, per queue by
// ascending a then b), so adjacency lists and Stats do not depend on
// the scan. Conditions read the closure as of the round's start; an
// edge added earlier in the round does not change a later test.
func (g *Graph) applyDerivedRules() bool {
	added := false
	ix := g.ix
	// Atomicity rule: begin(i) ≺ end(j) ⇒ end(i) ≺ begin(j) for events
	// i < j of one looper. The antecedent reads the row of begin(i) at
	// ante(j), the consequent the row of end(i) at col(j).
	for li := range ix.loopers {
		lr := &ix.loopers[li]
		for i, ev := range lr.events {
			ra, rc := int(ix.exitAt[ev.begin]), int(ix.exitAt[ev.end])
			if ra < 0 || (ra == rc && !lr.hasInner) {
				continue
			}
			if ante, ok := g.reach.list(ra); ok {
				// A list row: map each of its columns to the event whose
				// antecedent it is. Inner events read ante(j) > col(j),
				// so their hits are sorted back into col order.
				fired := g.fired[:0]
				k, _ := slices.BinarySearch(ante, ev.col+1)
				for _, d := range ante[k:] {
					j := int(ix.anteEv[d]) - lr.first
					if j <= i || j >= len(lr.events) {
						continue
					}
					if c := lr.events[j].col; !g.reach.has(rc, int(c)) {
						fired = append(fired, c)
					}
				}
				if lr.hasInner {
					slices.Sort(fired)
				}
				for _, c := range fired {
					g.addRule(ev.end, ix.entries[c], &added)
				}
				g.fired = fired
				continue
			}
			// A window row: for a simple j both sides read col(j), so
			// the pairs that fire are (antecedent &^ consequent) &
			// simple, from i's column on. Events with an internal entry
			// keep a per-pair antecedent test.
			start := int(ev.col) + 1
			ante, alo := g.reach.window(ra), int(g.reach.hdr[ra].lo)
			var cons []uint64 // nil: the consequent row is a list
			clo := int(g.reach.hdr[rc].lo)
			if _, ok := g.reach.list(rc); !ok {
				cons = g.reach.window(rc)
			}
			for w := max(start/64, lr.lo); w < lr.lo+len(lr.simple); w++ {
				var aw, cw uint64
				if w >= alo {
					aw = ante[w-alo]
				}
				switch {
				case cons == nil:
					cw = g.reach.word(rc, w)
				case w >= clo:
					cw = cons[w-clo]
				}
				inner := lr.inner[w-lr.lo]
				m := lr.simple[w-lr.lo]&(aw&^cw) | inner&^cw
				if w == start/64 {
					m &= ^uint64(0) << (uint(start) % 64)
				}
				for ; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					c := w*64 + b
					if inner&(1<<uint(b)) != 0 && !g.reach.has(ra, int(lr.events[int(ix.evAt[c])-lr.first].ante)) {
						continue
					}
					g.addRule(ev.end, ix.entries[c], &added)
				}
			}
		}
	}
	// Event queue rules over ordered sends to the same queue. The
	// sends b that a's send reaches are a's later sends from the same
	// task plus those whose entry column is set in a's exit row.
	for qi := range ix.queues {
		qr := &ix.queues[qi]
		hit := g.hitScratch(len(qr.sends))
		mark := func(k int) {
			for _, b := range qr.sendIdx[qr.at[k]:qr.at[k+1]] {
				hit[b/64] |= 1 << (uint(b) % 64)
			}
		}
		for ai := range qr.sends {
			a := qr.sends[ai]
			for b := qr.own[ai]; b >= 0; b = qr.own[b] {
				hit[b/64] |= 1 << (uint(b) % 64)
			}
			if r := int(ix.exitAt[a.node]); r >= 0 && len(qr.mask) > 0 {
				if row, ok := g.reach.list(r); ok {
					for _, d := range row {
						if k, found := slices.BinarySearch(qr.cols, d); found {
							mark(k)
						}
					}
				} else {
					row, lo := g.reach.window(r), int(g.reach.hdr[r].lo)
					for w := max(lo, qr.lo); w < qr.lo+len(qr.mask); w++ {
						for m := row[w-lo] & qr.mask[w-qr.lo]; m != 0; m &= m - 1 {
							k, _ := slices.BinarySearch(qr.cols, int32(w*64+bits.TrailingZeros64(m)))
							mark(k)
						}
					}
				}
			}
			for w := ai / 64; w < len(hit); w++ {
				m := hit[w]
				hit[w] = 0
				for ; m != 0; m &= m - 1 {
					if bi := w*64 + bits.TrailingZeros64(m); bi > ai {
						g.applyQueueRules(qr, ai, bi, &added)
					}
				}
			}
		}
	}
	return added
}

// hitScratch returns a zeroed per-send bitset for a queue of n sends.
func (g *Graph) hitScratch(n int) []uint64 {
	words := (n + 63) / 64
	if cap(g.hits) < words {
		g.hits = make([]uint64, words)
	}
	g.hits = g.hits[:words]
	clear(g.hits)
	return g.hits
}

// applyQueueRules applies rules 1–4 to sends ai ≺ bi of one queue.
func (g *Graph) applyQueueRules(qr *queueRule, ai, bi int, added *bool) {
	a, b := qr.sends[ai], qr.sends[bi]
	if a.event == b.event {
		return
	}
	switch {
	case !a.front && !b.front:
		// Rule 1: delays must satisfy d1 <= d2.
		if a.delay <= b.delay {
			g.orderNodes(qr.ends[ai], qr.begins[bi], added)
		}
	case a.front && !b.front:
		// Rule 3: sendAtFront(e1) ≺ send(e2) ⇒ e1 ≺ e2.
		g.orderNodes(qr.ends[ai], qr.begins[bi], added)
	default:
		// Rules 2 (send, sendAtFront) and 4 (sendAtFront,
		// sendAtFront): additionally need sendAtFront(e2) ≺ begin(e1).
		if be := qr.begins[ai]; be >= 0 && g.reachable(b.node, be) {
			g.orderNodes(qr.ends[bi], qr.begins[ai], added)
		}
	}
}

// orderNodes adds end(e1) → begin(e2) by pre-resolved node ids (-1 =
// the task has no such node) unless already derivable. The two events
// differ, so the end is its own exit row and the begin its own entry
// column in another task.
func (g *Graph) orderNodes(en, b int32, added *bool) {
	if en < 0 || b < 0 {
		return
	}
	if g.reach.has(int(g.ix.exitAt[en]), int(g.ix.entryAt[b])) {
		return
	}
	g.addRule(en, b, added)
}

// addRule inserts a derived edge.
func (g *Graph) addRule(en, b int32, added *bool) {
	if g.addEdge(en, b) {
		g.ruleEdges++
		*added = true
	}
}

// Stats summarizes graph construction.
type Stats struct {
	Entries   int
	Nodes     int
	BaseEdges int
	RuleEdges int
	Rounds    int
	// ClosureBytes is what the reachability closure holds: the
	// event-driven model's rows, or the conventional model's projection
	// as of the call, since queries extend it.
	ClosureBytes int
}

// Stats returns construction statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Entries:   g.tr.Len(),
		Nodes:     len(g.nodes),
		BaseEdges: g.baseEdges,
		RuleEdges: g.ruleEdges,
		Rounds:    g.rounds,
	}
	if g.proj != nil {
		st.ClosureBytes = g.proj.bytes()
	} else {
		st.ClosureBytes = g.reach.bytes()
	}
	return st
}
