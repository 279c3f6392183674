package hb

import (
	"fmt"
	"strings"

	"cafa/internal/trace"
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
	pp := g.prevScratch()
	defer g.prevPool.Put(pp)
	prev := *pp
	queue := []int32{src}
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
	found := prev[dst] != -2
	var rev []int
	if found {
		for v := dst; v >= 0; v = prev[v] {
			rev = append(rev, g.nodes[v].seq)
		}
	}
	// Only queued nodes were touched: reset them for the next call.
	for _, v := range queue {
		prev[v] = -2
	}
	if !found {
		return nil
	}
	path := make([]int, 0, len(rev)+2)
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

// prevScratch returns a BFS predecessor array with every entry -2
// (unvisited), from the pool when one is free.
func (g *Graph) prevScratch() *[]int32 {
	if p, ok := g.prevPool.Get().(*[]int32); ok {
		return p
	}
	prev := make([]int32, len(g.nodes))
	for k := range prev {
		prev[k] = -2
	}
	return &prev
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
	// trace order: binary-search to the last node before min(i,j) and
	// scan backwards from there, visiting candidates latest-first.
	//
	// A candidate reduced node n is its own task's anchor, so
	// Ordered(n.seq, i) reduces to program order within i's task or a
	// single closure-bit test against i's backward anchor — resolved
	// once here instead of re-deriving anchors per candidate.
	ti := g.tr.Entries[i].Task
	tj := g.tr.Entries[j].Task
	vi := g.anchorBefore(ti, i)
	vj := g.anchorBefore(tj, j)
	before := func(n int32, t trace.TaskID, idx int, v int32) bool {
		nd := &g.nodes[n]
		if nd.task == t {
			return nd.seq < idx
		}
		return v >= 0 && g.reachable(n, v)
	}
	lim := i
	if j < lim {
		lim = j
	}
	lo, hi := 0, len(g.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nodes[mid].seq < lim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for n := int32(lo - 1); n >= 0; n-- {
		if before(n, ti, i, vi) && before(n, tj, j, vj) {
			return g.nodes[n].seq
		}
	}
	return -1
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
