package hb

import (
	"fmt"
	"sort"
	"strings"
)

// Explain returns a happens-before derivation from entry i to entry
// j: the trace indexes of the reduced nodes along one shortest path
// (starting at i's forward anchor and ending at j's backward anchor).
// It returns nil when the entries are not ordered.
func (g *Graph) Explain(i, j int) []int {
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
	if src < 0 || dst < 0 {
		return nil
	}
	// BFS over reduced nodes, enqueuing only nodes that reach dst.
	// Every node on a src→dst path reaches dst, so the pruned search
	// visits those nodes in the same order and returns the same path.
	sc := g.bfsScratch()
	defer g.bfsPool.Put(sc)
	prev := sc.prev
	queue := append(sc.queue[:0], src)
	prev[src] = -1
	for h := 0; h < len(queue) && prev[dst] == -2; h++ {
		u := queue[h]
		for _, w := range g.adj[u] {
			if prev[w] == -2 && g.reachable(w, dst) {
				prev[w] = u
				queue = append(queue, w)
			}
		}
	}
	var path []int
	if prev[dst] != -2 {
		// The path is i, the nodes src … dst, then j, with i and j
		// left out where they are the anchors themselves.
		n := 0
		for v := dst; v >= 0; v = prev[v] {
			n++
		}
		lead := 0
		if g.nodes[src].seq != i {
			lead = 1
		}
		path = make([]int, lead+n, lead+n+1)
		path[0] = i
		for v, k := dst, lead+n-1; v >= 0; v, k = prev[v], k-1 {
			path[k] = g.nodes[v].seq
		}
		if g.nodes[dst].seq != j {
			path = append(path, j)
		}
	}
	// Only queued nodes were touched: reset them for the next call.
	for _, v := range queue {
		prev[v] = -2
	}
	sc.queue = queue
	return path
}

// bfsBuf is Explain's per-call scratch: a predecessor array with every
// entry -2 (unvisited) and a queue.
type bfsBuf struct {
	prev, queue []int32
}

// bfsScratch returns scratch from the pool when one is free.
func (g *Graph) bfsScratch() *bfsBuf {
	if sc, ok := g.bfsPool.Get().(*bfsBuf); ok {
		return sc
	}
	sc := &bfsBuf{prev: make([]int32, len(g.nodes))}
	for k := range sc.prev {
		sc.prev[k] = -2
	}
	return sc
}

// CommonAncestor returns the trace index of the nearest common causal
// ancestor of entries i and j: the latest reduced node (the causal
// skeleton — task boundaries and cross-edge endpoints) that
// happens-before both, or -1 when none exists. It is the fork point a
// race's causality subgraph hangs from: the derivations
// Explain(CommonAncestor(i,j), i) and Explain(CommonAncestor(i,j), j)
// show how the execution reached both racy operations.
func (g *Graph) CommonAncestor(i, j int) int {
	// Happens-before is consistent with trace order, so an ancestor of
	// both entries must precede the earlier one. nodes are appended in
	// trace order: binary-search to the last node before min(i,j), then
	// find the latest candidate before it, through the column → rows
	// index when there is one, else scanning backwards.
	//
	// A candidate reduced node n is its own task's anchor and precedes
	// min(i, j) in trace order, so n ≺ i holds by program order within
	// i's task and otherwise is one closure test of n's exit row
	// against the column of i's backward anchor, resolved once here.
	ei, ej := g.tr.Entries[i].Task, g.tr.Entries[j].Task
	ci, cj := g.columnOf(g.anchorBefore(ei, i)), g.columnOf(g.anchorBefore(ej, j))
	ti, tj := g.tr.Slot(ei), g.tr.Slot(ej)
	lim := min(i, j)
	lo, hi := 0, len(g.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nodes[mid].seq < lim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if off, rows := g.columnRows(); off != nil {
		rowsOf := func(c int32) []int32 {
			if c < 0 {
				return nil
			}
			return rows[off[c]:off[c+1]]
		}
		return g.ancestorByRows(ti, tj, rowsOf(ci), rowsOf(cj), int32(lo))
	}
	for n := int32(lo - 1); n >= 0; n-- {
		t, r := g.nodes[n].slot, g.ix.exitAt[n]
		if (t == ti || g.rowHas(r, ci)) && (t == tj || g.rowHas(r, cj)) {
			return g.nodes[n].seq
		}
	}
	return -1
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
// its row headers, where CommonAncestor's scan finds an ancestor
// within a few nodes anyway.
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
