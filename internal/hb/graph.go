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
// Build iterates rule application and transitive closure to a
// fixpoint. The closure is computed in full once; subsequent rounds
// propagate only the reachability contributed by edges added since the
// previous round (closure over a DAG is monotone in its edge set, so
// the incremental result is bit-identical to a recompute).
//
// Because every rule only ever concludes orderings that actually held
// in the traced execution, the happens-before relation is consistent
// with trace order; the graph is a DAG whose topological order is the
// entry sequence. Its nodes are "reduced nodes" (task begins/ends plus
// cross-edge endpoints); arbitrary operations resolve through their
// nearest reduced anchors.
//
// The closure matrix keeps only the rows and columns where paths cross
// tasks (see anchorIndex): one row per exit (task end or source of a
// cross-task base edge) and one column per entry (task begin or target
// of a cross-task base edge), about a quarter of the n² node matrix on
// the app models. Within a task, reachability is program order; across
// tasks, u reaches v iff the row of u's first exit at or after u has
// the column of v's last entry at or before v. Every edge the
// fixpoint adds runs end → begin, so the layout is fixed by the
// prescan. The atomicity and queue rules scan closure rows a word at
// a time and add edges in the order the per-pair loops would.
//
// The single trace scan (node collection plus model-independent base
// edges) is factored into Scan/Prescan so the event-driven and
// conventional variants of one trace share it; BuildFromScan builds a
// graph over a shared Prescan and is safe to call concurrently.
package hb

import (
	"fmt"
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
	// added in either mode, matching the paper's comparator.
	Conventional bool
	// MaxRounds bounds fixpoint iteration (safety; 0 = default 64).
	MaxRounds int
}

// node is one reduced node of the graph.
type node struct {
	seq  int // entry index in the trace
	task trace.TaskID
}

type sendInfo struct {
	node  int32 // reduced node id of the send entry
	event trace.TaskID
	delay int64
	front bool
}

// Graph is the happens-before graph of one trace.
type Graph struct {
	tr    *trace.Trace
	opts  Options
	nodes []node
	// taskNodes holds node ids per task, ascending by seq.
	taskNodes map[trace.TaskID][]int32
	adj       [][]int32
	// ix is the Prescan's exit×entry layout; reach holds one row per
	// exit and one column per entry.
	ix    *anchorIndex
	reach *bitmat

	begins map[trace.TaskID]int32 // node id of begin(t)
	ends   map[trace.TaskID]int32 // node id of end(t)

	// pending are edges added since the last closure; the next
	// (incremental) closure round consumes them. changed is that
	// round's per-row dirty scratch and hits the queue scan's per-send
	// scratch, both reused across rounds.
	pending []edge
	changed []bool
	hits    []uint64

	// prevPool recycles Explain's BFS predecessor arrays.
	prevPool sync.Pool

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
// models, built concurrently) are safe: the Prescan is read-only.
func BuildFromScan(ps *Prescan, opts Options) (*Graph, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64
	}
	g := &Graph{
		tr:        ps.tr,
		opts:      opts,
		nodes:     ps.nodes,
		taskNodes: ps.taskNodes,
		ix:        ps.ix,
		begins:    ps.begins,
		ends:      ps.ends,
	}
	g.adj = make([][]int32, len(g.nodes))
	for u := range g.adj {
		g.adj[u] = ps.baseSuccOf(u)
	}
	g.baseEdges = len(ps.baseSucc)
	// Conventional baseline: total event order per looper.
	if opts.Conventional {
		for _, evs := range ps.looperEvents {
			for i := 1; i < len(evs); i++ {
				en, ok1 := g.ends[evs[i-1]]
				b, ok2 := g.begins[evs[i]]
				if ok1 && ok2 && g.addEdge(en, b) {
					g.baseEdges++
				}
			}
		}
	}
	g.reach = newBitmat(len(g.ix.exits), len(g.ix.entries))
	for round := 0; ; round++ {
		if round >= opts.MaxRounds {
			return nil, fmt.Errorf("hb: fixpoint did not converge in %d rounds", opts.MaxRounds)
		}
		g.rounds = round + 1
		if round == 0 {
			g.closure()
			g.pending = g.pending[:0]
		} else {
			g.incrementalClosure()
		}
		if !g.applyDerivedRules() {
			break
		}
	}
	cBuilds.Inc()
	cBaseEdges.Add(int64(g.baseEdges))
	cRuleEdges.Add(int64(g.ruleEdges))
	cFixpointRounds.Add(int64(g.rounds))
	hClosureRoundsPer.Observe(int64(g.rounds))
	return g, nil
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
			g.reach.set(r, int(ix.entryAt[x]))
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
		if ix.isEntry(t) && g.reach.setChanged(r, int(ix.entryAt[t])) {
			ch = true
		}
		if ix.isExit(t) {
			return g.reach.orIntoChanged(r, int(ix.exitAt[t])) || ch
		}
	}
	return ch
}

// incrementalClosure folds the pending edges into the closure matrix
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
			if s := int(ix.exitAt[w]); s >= 0 && s <= maxRow && changed[s] && g.reach.orIntoChanged(r, s) {
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
	if g.nodes[u].task == g.nodes[v].task {
		return u <= v
	}
	r, c := g.ix.exitAt[u], g.ix.entryAt[v]
	return r >= 0 && c >= 0 && g.reach.get(int(r), int(c))
}

// applyDerivedRules applies the atomicity rule and the four event
// queue rules, returning whether any new edge was added. Both scan
// closure rows a word at a time instead of testing every pair, and
// visit the pairs that fire in the order the pair loops would (per
// looper by ascending i then j, per queue by ascending a then b), so
// adjacency lists and Stats do not depend on the scan. Conditions
// read the closure as of the round's start; an edge added earlier in
// the round does not change a later test.
func (g *Graph) applyDerivedRules() bool {
	added := false
	ix := g.ix
	// Atomicity rule: begin(i) ≺ end(j) ⇒ end(i) ≺ begin(j) for events
	// i < j of one looper. For a simple j both sides read column
	// col(begin(j)), so the pairs that fire for i are (antecedent row
	// &^ consequent row) & simple, from i's column on. Events with an
	// internal entry keep a per-pair antecedent test.
	for li := range ix.loopers {
		lr := &ix.loopers[li]
		for _, ev := range lr.events {
			ra, rc := ix.exitAt[ev.begin], ix.exitAt[ev.end]
			if ra < 0 || (ra == rc && !lr.hasInner) {
				continue
			}
			ante, cons := g.reach.row(int(ra)), g.reach.row(int(rc))
			start := int(ev.col) + 1
			w0 := max(start/64, lr.lo)
			for w := w0; w < lr.lo+len(lr.simple); w++ {
				inner := lr.inner[w-lr.lo]
				m := lr.simple[w-lr.lo]&(ante[w]&^cons[w]) | inner&^cons[w]
				if w == start/64 {
					m &= ^uint64(0) << (uint(start) % 64)
				}
				for ; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					c := w*64 + b
					if inner&(1<<uint(b)) != 0 && !g.reach.get(int(ra), int(ix.entryAt[ix.colEnd[c]])) {
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
		for ai := range qr.sends {
			a := qr.sends[ai]
			for b := qr.own[ai]; b >= 0; b = qr.own[b] {
				hit[b/64] |= 1 << (uint(b) % 64)
			}
			if r := ix.exitAt[a.node]; r >= 0 && len(qr.mask) > 0 {
				row := g.reach.row(int(r))
				for w := max(ix.firstColFrom(ix.exits[r])/64, qr.lo); w < qr.lo+len(qr.mask); w++ {
					for m := row[w] & qr.mask[w-qr.lo]; m != 0; m &= m - 1 {
						k, _ := slices.BinarySearch(qr.cols, int32(w*64+bits.TrailingZeros64(m)))
						for _, b := range qr.sendIdx[qr.at[k]:qr.at[k+1]] {
							hit[b/64] |= 1 << (uint(b) % 64)
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
// the task has no such node) unless already derivable.
func (g *Graph) orderNodes(en, b int32, added *bool) {
	if en < 0 || b < 0 {
		return
	}
	if g.reachable(en, b) {
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
}

// Stats returns construction statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Entries:   g.tr.Len(),
		Nodes:     len(g.nodes),
		BaseEdges: g.baseEdges,
		RuleEdges: g.ruleEdges,
		Rounds:    g.rounds,
	}
}
