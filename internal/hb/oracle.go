package hb

import (
	"sort"

	"cafa/internal/trace"
)

// anchorAfter returns the first reduced node of task t at or after
// entry seq, or -1.
func (g *Graph) anchorAfter(t trace.TaskID, seq int) int32 {
	ns := g.nodesOf(t)
	i := sort.Search(len(ns), func(i int) bool { return g.nodes[ns[i]].seq >= seq })
	if i == len(ns) {
		return -1
	}
	return ns[i]
}

// anchorBefore returns the last reduced node of task t at or before
// entry seq, or -1.
func (g *Graph) anchorBefore(t trace.TaskID, seq int) int32 {
	ns := g.nodesOf(t)
	i := sort.Search(len(ns), func(i int) bool { return g.nodes[ns[i]].seq > seq })
	if i == 0 {
		return -1
	}
	return ns[i-1]
}

// Ordered reports whether entry i happens-before entry j according to
// the model. Within one task it is program order; across tasks it is
// graph reachability through the nearest reduced anchors.
func (g *Graph) Ordered(i, j int) bool {
	return g.OrderedAt(i, g.tr.Entries[i].Task, j, g.tr.Entries[j].Task)
}

// OrderedAt is Ordered with the entries' tasks supplied by the caller
// — the form streaming analyses use, since a streamed trace has no
// materialized Entries to look tasks up in.
func (g *Graph) OrderedAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	if i == j {
		return false
	}
	if ti == tj {
		return i < j
	}
	if i > j {
		// Happens-before is consistent with trace order.
		return false
	}
	u := g.anchorAfter(ti, i)
	v := g.anchorBefore(tj, j)
	if u < 0 || v < 0 {
		return false
	}
	return g.reachable(u, v)
}

// Concurrent reports whether two entries are unordered in both
// directions (and belong to different tasks).
func (g *Graph) Concurrent(i, j int) bool {
	return g.ConcurrentAt(i, g.tr.Entries[i].Task, j, g.tr.Entries[j].Task)
}

// ConcurrentAt is Concurrent with caller-supplied tasks (see
// OrderedAt).
func (g *Graph) ConcurrentAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	if i == j || ti == tj {
		return false
	}
	return !g.OrderedAt(i, ti, j, tj) && !g.OrderedAt(j, tj, i, ti)
}

// TaskOrdered reports end(t1) ≺ begin(t2): the whole of task t1
// happens-before the whole of task t2.
func (g *Graph) TaskOrdered(t1, t2 trace.TaskID) bool {
	en, b := g.nodeOf(g.ends, t1), g.nodeOf(g.begins, t2)
	if en < 0 || b < 0 {
		return false
	}
	return g.reachable(en, b)
}

// TasksConcurrent reports that neither task is wholly ordered before
// the other.
func (g *Graph) TasksConcurrent(t1, t2 trace.TaskID) bool {
	if t1 == t2 {
		return false
	}
	return !g.TaskOrdered(t1, t2) && !g.TaskOrdered(t2, t1)
}
