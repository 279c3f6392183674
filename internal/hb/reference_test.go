package hb

import (
	"slices"
	"testing"
)

// refGraph is the node-level reference engine: one closure row and
// column per reduced node, recomputed in full every round, and the
// atomicity and queue rules as per-pair loops. It is the
// straightforward form of the fixpoint Graph computes over its exit
// rows and entry columns, kept as the oracle for it.
type refGraph struct {
	ps    *Prescan
	adj   [][]int32
	reach *nodeMat

	rounds    int
	baseEdges int
	ruleEdges int
}

// buildRef runs the reference fixpoint over a Prescan.
func buildRef(ps *Prescan, opts Options) *refGraph {
	g := &refGraph{ps: ps, adj: make([][]int32, len(ps.nodes))}
	for u := range g.adj {
		g.adj[u] = slices.Clone(ps.baseSuccOf(u))
		g.baseEdges += len(g.adj[u])
	}
	if opts.Conventional {
		for lo := range int32(len(ps.tr.Tasks)) {
			evs := ps.eventsOf(lo)
			for i := 1; i < len(evs); i++ {
				en, b := ps.ends[evs[i-1]], ps.begins[evs[i]]
				if en >= 0 && b >= 0 && g.addEdge(en, b) {
					g.baseEdges++
				}
			}
		}
	}
	for round := 0; ; round++ {
		g.rounds = round + 1
		g.reach = nodeClosure(g.adj)
		if !g.applyDerivedRules() {
			return g
		}
	}
}

// nodeMat is the reference's dense node × node reachability matrix.
type nodeMat struct {
	words int
	bits  []uint64
}

func (m *nodeMat) row(i int) []uint64 { return m.bits[i*m.words : (i+1)*m.words] }

func (m *nodeMat) get(i, j int) bool { return m.row(i)[j/64]&(1<<(uint(j)%64)) != 0 }

// nodeClosure computes the node-level transitive closure of a DAG
// whose node ids are a topological order.
func nodeClosure(adj [][]int32) *nodeMat {
	n := len(adj)
	m := &nodeMat{words: (n + 63) / 64}
	m.bits = make([]uint64, n*m.words)
	for i := n - 1; i >= 0; i-- {
		d := m.row(i)
		d[i/64] |= 1 << (uint(i) % 64)
		for _, w := range adj[i] {
			for k, v := range m.row(int(w)) {
				d[k] |= v
			}
		}
	}
	return m
}

func (g *refGraph) addEdge(u, v int32) bool {
	if u < 0 || v < 0 || u == v || g.ps.nodes[u].seq >= g.ps.nodes[v].seq {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	return true
}

func (g *refGraph) reachable(u, v int32) bool { return g.reach.get(int(u), int(v)) }

func (g *refGraph) orderNodes(en, b int32, added *bool) {
	if en < 0 || b < 0 || g.reachable(en, b) {
		return
	}
	if g.addEdge(en, b) {
		g.ruleEdges++
		*added = true
	}
}

func (g *refGraph) applyDerivedRules() bool {
	ps := g.ps
	added := false
	for lo := range int32(len(ps.tr.Tasks)) {
		evs := ps.eventsOf(lo)
		for i := range evs {
			bi, ei := ps.begins[evs[i]], ps.ends[evs[i]]
			if bi < 0 || ei < 0 {
				continue
			}
			for j := i + 1; j < len(evs); j++ {
				bj, ej := ps.begins[evs[j]], ps.ends[evs[j]]
				if bj < 0 || ej < 0 {
					continue
				}
				if g.reachable(bi, ej) && !g.reachable(ei, bj) && g.addEdge(ei, bj) {
					g.ruleEdges++
					added = true
				}
			}
		}
	}
	for _, q := range sortedKeys(ps.queueSends) {
		sends := ps.queueSends[q]
		beginOf := func(i int) int32 { return ps.nodeOf(ps.begins, sends[i].event) }
		endOf := func(i int) int32 { return ps.nodeOf(ps.ends, sends[i].event) }
		for ai, a := range sends {
			for bi := ai + 1; bi < len(sends); bi++ {
				b := sends[bi]
				if a.event == b.event || !g.reachable(a.node, b.node) {
					continue
				}
				switch {
				case !a.front && !b.front:
					if a.delay <= b.delay {
						g.orderNodes(endOf(ai), beginOf(bi), &added)
					}
				case a.front && !b.front:
					g.orderNodes(endOf(ai), beginOf(bi), &added)
				default:
					if be := beginOf(ai); be >= 0 && g.reachable(b.node, be) {
						g.orderNodes(endOf(bi), be, &added)
					}
				}
			}
		}
	}
	return added
}

func (g *refGraph) stats() Stats {
	return Stats{
		Entries:   g.ps.tr.Len(),
		Nodes:     len(g.ps.nodes),
		BaseEdges: g.baseEdges,
		RuleEdges: g.ruleEdges,
		Rounds:    g.rounds,
	}
}

// assertReachMatches requires g.reachable to agree with a node-level
// closure on every node pair.
func assertReachMatches(t testing.TB, g *Graph, want *nodeMat) {
	t.Helper()
	for u := range g.nodes {
		for v := range g.nodes {
			if got, w := g.reachable(int32(u), int32(v)), want.get(u, v); got != w {
				t.Fatalf("reachable(%d, %d) = %v, node-level closure says %v", u, v, got, w)
			}
		}
	}
}

// assertClosureExact checks g's closure, after incremental rounds (or
// its projection, column by column), against a from-scratch node-level closure over g's final
// edge set.
func assertClosureExact(t testing.TB, g *Graph) {
	t.Helper()
	assertReachMatches(t, g, nodeClosure(g.adj))
}

// assertMatchesReference builds ps with Graph and with the reference
// engine and requires identical Stats, identical adjacency lists
// (order included) and identical reachability. The reference runs its
// full fixpoint in both models, so a trace where the rules would add
// an edge to the conventional model, whose build skips them, fails.
func assertMatchesReference(t testing.TB, ps *Prescan, opts Options) (*Graph, *refGraph) {
	t.Helper()
	g, err := BuildFromScan(ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRef(ps, opts)
	if opts.Conventional && ref.ruleEdges != 0 {
		t.Fatalf("the reference derives %d rule edges for the conventional model; its build skips the rules", ref.ruleEdges)
	}
	got := g.Stats()
	got.ClosureBytes = 0
	if got != ref.stats() {
		t.Fatalf("opts %+v: stats %+v, reference %+v", opts, got, ref.stats())
	}
	for u := range g.adj {
		if !slices.Equal(g.adj[u], ref.adj[u]) {
			t.Fatalf("opts %+v: adj[%d] = %v, reference %v", opts, u, g.adj[u], ref.adj[u])
		}
	}
	assertReachMatches(t, g, ref.reach)
	return g, ref
}
