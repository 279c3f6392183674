package hb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Explain returns a happens-before derivation from entry i to entry
// j: the trace indexes of the reduced nodes along one shortest path
// (starting at i's forward anchor and ending at j's backward anchor).
// It returns nil when the entries are not ordered. It is the one-query
// case of a Search, on scratch from a pool, so concurrent calls are
// safe.
func (g *Graph) Explain(i, j int) []int {
	s, ok := g.searchPool.Get().(*Search)
	if !ok {
		s = g.NewSearch()
	}
	defer g.searchPool.Put(s)
	return s.Explain(i, j)
}

// Search is a breadth-first search over the reduced nodes from one
// source anchor, owned by its caller. It grows its tree only until
// the node a query asks for is discovered, and keeps it for the next
// query from the same source, so derivations from one ancestor to
// many operations share one search. The search is unpruned: every
// node on a shortest src → dst path reaches dst, so a search that only
// enqueued nodes reaching dst would visit those nodes in the same
// order and return the same path. A Search is not safe for concurrent
// use; the Graph it reads is.
type Search struct {
	g *Graph
	// prev holds each discovered node's BFS predecessor plus one; it
	// is 0 for an undiscovered node and -1 for the source. queue holds
	// the discovered nodes in BFS order, the first head of them
	// expanded; queue[0] is the source.
	prev  []int32
	queue []int32
	head  int
}

// NewSearch returns an empty search over g. Its scratch is a
// predecessor and at most one queue slot per node, whatever it is
// asked.
func (g *Graph) NewSearch() *Search {
	return &Search{g: g, prev: make([]int32, len(g.nodes))}
}

// Explain is g.Explain(i, j). A call whose i has the forward anchor
// of the previous call's i extends the previous call's tree; any other
// call starts a new one.
func (s *Search) Explain(i, j int) []int {
	g := s.g
	if !g.Ordered(i, j) {
		return nil
	}
	ei := &g.tr.Entries[i]
	ej := &g.tr.Entries[j]
	if ei.Task == ej.Task {
		return []int{i, j}
	}
	src := g.anchorAfter(ei.Task, i)
	dst := g.anchorBefore(ej.Task, j)
	if src < 0 || dst < 0 || !s.grow(src, dst) {
		return nil
	}
	// The path is i, the nodes src … dst, then j, with i and j left
	// out where they are the anchors themselves.
	n := 1
	for v := dst; v != src; v = s.prev[v] - 1 {
		n++
	}
	lead, trail := 0, 0
	if g.nodes[src].seq != i {
		lead = 1
	}
	if g.nodes[dst].seq != j {
		trail = 1
	}
	path := make([]int, lead+n+trail)
	path[0], path[len(path)-1] = i, j
	for v, k := dst, lead+n-1; k >= lead; v, k = s.prev[v]-1, k-1 {
		path[k] = g.nodes[v].seq
	}
	return path
}

// grow extends the tree from src until dst is discovered or the tree
// is complete, first starting over when the tree has another source,
// and reports whether dst is in it.
func (s *Search) grow(src, dst int32) bool {
	if len(s.queue) == 0 || s.queue[0] != src {
		for _, v := range s.queue {
			s.prev[v] = 0
		}
		s.prev[src] = -1
		s.queue = append(s.queue[:0], src)
		s.head = 0
	}
	for ; s.prev[dst] == 0 && s.head < len(s.queue); s.head++ {
		u := s.queue[s.head]
		for _, w := range s.g.adj[u] {
			if s.prev[w] == 0 {
				s.prev[w] = u + 1
				s.queue = append(s.queue, w)
			}
		}
	}
	return s.prev[dst] != 0
}

// CommonAncestor returns the trace index of the nearest common causal
// ancestor of entries i and j: the latest reduced node (the causal
// skeleton — task boundaries and cross-edge endpoints) that
// happens-before both, or -1 when none exists. It is the fork point a
// race's causality subgraph hangs from: the derivations
// Explain(CommonAncestor(i,j), i) and Explain(CommonAncestor(i,j), j)
// show how the execution reached both racy operations.
func (g *Graph) CommonAncestor(i, j int) int {
	return g.CommonAncestors([][2]int{{i, j}})[0]
}

// CommonAncestors returns CommonAncestor(p[0], p[1]) for every pair
// p. Where the closure by column fits (see columnRows), each pair
// walks the rows that reach its two columns. Otherwise a backward scan
// answers it, and pairs whose second entries share a task and a
// backward anchor's column share one list of the nodes that reach
// that side, so a detector's races, which name a few frees many times
// over, pay for that side once per free anchor.
func (g *Graph) CommonAncestors(pairs [][2]int) []int {
	qs := g.ancestorQueries(pairs)
	out := make([]int, len(pairs))
	if off, rows := g.columnRows(); off != nil {
		// The closure by column names the rows that reach each side.
		rowsOf := func(c int32) []int32 {
			if c < 0 {
				return nil
			}
			return rows[off[c]:off[c+1]]
		}
		for _, q := range qs {
			out[q.k] = g.ancestorByRows(q.ti, q.tj, rowsOf(q.ci), rowsOf(q.cj), q.lo)
		}
	} else {
		g.ancestorsByScan(qs, out)
	}
	return out
}

// ancestorQueries resolves each pair's sides for the ancestor search.
// Happens-before is consistent with trace order, so an ancestor of
// both entries precedes the earlier one. A candidate reduced node n is
// its own task's anchor and precedes min(i, j), so n ≺ i holds by
// program order within i's task and otherwise is one closure test of
// n's exit row against the column of i's backward anchor. The answer
// is the latest node before min(i, j) that passes the test for both
// sides.
func (g *Graph) ancestorQueries(pairs [][2]int) []ancestorQuery {
	qs := make([]ancestorQuery, len(pairs))
	for k, p := range pairs {
		i, j := p[0], p[1]
		ti, tj := g.tr.Entries[i].Task, g.tr.Entries[j].Task
		lim := min(i, j)
		qs[k] = ancestorQuery{
			k:  int32(k),
			ti: g.tr.Slot(ti), ci: g.columnOf(g.anchorBefore(ti, i)),
			tj: g.tr.Slot(tj), cj: g.columnOf(g.anchorBefore(tj, j)),
			lo: int32(sort.Search(len(g.nodes), func(n int) bool { return g.nodes[n].seq >= lim })),
		}
	}
	return qs
}

// ancestorsByScan answers the queries by scanning nodes backwards from
// each lo. Queries with the same j side share one candidate list of
// the nodes that pass j's test: grouped by that side and taken latest
// lo first, the list only ever extends downwards, so no node is tested
// for j twice and no more nodes are tested than per-query scans would.
// Each candidate then costs one test of i's side.
func (g *Graph) ancestorsByScan(qs []ancestorQuery, out []int) {
	slices.SortFunc(qs, func(a, b ancestorQuery) int {
		return cmp.Or(cmp.Compare(a.tj, b.tj), cmp.Compare(a.cj, b.cj), cmp.Compare(b.lo, a.lo))
	})
	var c ancestorCands
	for _, q := range qs {
		if c.t != q.tj || c.c != q.cj || q.lo > c.top || q.lo <= c.low {
			// Nothing scanned lies below q.lo: start the list there.
			c = ancestorCands{t: q.tj, c: q.cj, top: q.lo, low: q.lo, nodes: c.nodes[:0]}
		}
		out[q.k] = -1
		k := sort.Search(len(c.nodes), func(k int) bool { return c.nodes[k] < q.lo })
		for ; k < len(c.nodes) || c.extend(g); k++ {
			n := c.nodes[k]
			if g.nodes[n].slot == q.ti || g.rowHas(g.ix.exitAt[n], q.ci) {
				out[q.k] = g.nodes[n].seq
				break
			}
		}
	}
}

// ancestorQuery is one CommonAncestors pair: the task slot and
// backward anchor column of each side, and lo, the first node at or
// after the earlier entry. k is the pair's position.
type ancestorQuery struct {
	k, ti, ci, tj, cj, lo int32
}

// ancestorCands lists the nodes in [low, top) that reach one side —
// those of its task slot t, and those whose exit row holds its column
// c — latest first.
type ancestorCands struct {
	t, c     int32
	top, low int32
	nodes    []int32
}

// extend scans down from low to the next candidate, appends it and
// reports whether there was one.
func (a *ancestorCands) extend(g *Graph) bool {
	for a.low > 0 {
		a.low--
		if n := a.low; g.nodes[n].slot == a.t || g.rowHas(g.ix.exitAt[n], a.c) {
			a.nodes = append(a.nodes, n)
			return true
		}
	}
	return false
}

// ancestorByRows is CommonAncestor over the rows that reach i's column
// (a) and j's column (b), ascending, for nodes before node lo; ti and
// tj are the task slots of i and j. Within
// one task, a node's exit row holds every column a later node's does,
// so the nodes of a task that qualify are those up to its last exit
// whose row does. A qualifying row's exit is itself the candidate when
// it precedes lo, else the task's last node before lo is. Walking the
// rows down from the latest, the first candidate no later exit can
// beat is the answer.
func (g *Graph) ancestorByRows(ti, tj int32, a, b []int32, lo int32) int {
	best := int32(-1)
	if ti == tj {
		best = g.lastNodeBefore(ti, lo)
	}
	for ka, kb := len(a)-1, len(b)-1; ka >= 0 || kb >= 0; {
		var r int32
		switch {
		case kb < 0 || ka >= 0 && a[ka] > b[kb]:
			r = a[ka]
		default:
			r = b[kb]
		}
		inA, inB := ka >= 0 && a[ka] == r, kb >= 0 && b[kb] == r
		if inA {
			ka--
		}
		if inB {
			kb--
		}
		x := g.ix.exits[r]
		if x <= best {
			break
		}
		if t := g.nodes[x].slot; (t == ti || inA) && (t == tj || inB) {
			if x >= lo {
				x = g.lastNodeBefore(t, lo)
			}
			best = max(best, x)
		}
	}
	if best < 0 {
		return -1
	}
	return g.nodes[best].seq
}

// lastNodeBefore returns the last node before node lo of the task in
// slot t, or -1.
func (g *Graph) lastNodeBefore(t int32, lo int32) int32 {
	ns := g.slotNodes(t)
	k := sort.Search(len(ns), func(k int) bool { return ns[k] >= lo })
	if k == 0 {
		return -1
	}
	return ns[k-1]
}

// columnRows returns the event-driven closure by column — column c's
// rows, ascending, are rows[off[c]:off[c+1]] — built on first use. It
// is nil for the conventional model, whose rows are known per
// projected column only, and for a closure whose index would outgrow
// its row headers; CommonAncestors scans for those (ancestorsByScan).
func (g *Graph) columnRows() (off, rows []int32) {
	if g.reach == nil {
		return nil, nil
	}
	g.byColOnce.Do(func() {
		g.byColOff, g.byCol = g.reach.transpose(len(g.ix.entries), 4*len(g.ix.exits))
	})
	return g.byColOff, g.byCol
}

// columnOf returns node v's entry column, or -1 for v = -1.
func (g *Graph) columnOf(v int32) int32 {
	if v < 0 {
		return -1
	}
	return g.ix.entryAt[v]
}

// FormatPath renders an Explain result as a readable derivation.
func (g *Graph) FormatPath(path []int) string {
	if len(path) == 0 {
		return "(not ordered)"
	}
	var sb strings.Builder
	for k, idx := range path {
		e := &g.tr.Entries[idx]
		if k > 0 {
			sb.WriteString("\n  ≺ ")
		} else {
			sb.WriteString("    ")
		}
		fmt.Fprintf(&sb, "[%d] %s in %s", idx, e.String(), g.tr.TaskName(e.Task))
	}
	return sb.String()
}
