package hb

import (
	"testing"

	"cafa/internal/synth"
)

// TestBuildFullMatchesIncremental keeps the benchmark baseline honest:
// the incremental exit-row fixpoint and the node-level reference
// must produce identical stats, edges and reachability on the
// synthetic workload the benchmarks use.
func TestBuildFullMatchesIncremental(t *testing.T) {
	tr := synth.Trace(synth.Config{Chain: 4, EventsPer: 8, FreeThreads: 4})
	ps, err := Scan(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Conventional: true}} {
		inc, _ := assertMatchesReference(t, ps, opts)
		// The conventional baseline derives everything from its total
		// order in round 0; only the event-driven model must iterate.
		if !opts.Conventional && inc.rounds < 3 {
			t.Fatalf("synthetic chain converged in %d rounds; want a multi-round fixpoint", inc.rounds)
		}
	}
}

// TestLongChainConverges: a chained-looper trace needs about one
// fixpoint round per looper, so a long chain runs past any fixed round
// cap. The fixpoint stops only when a round adds no edge; both engines
// must get there and agree.
func TestLongChainConverges(t *testing.T) {
	for _, chain := range []int{64, 200} {
		tr := synth.Trace(synth.Config{Chain: chain, EventsPer: 2, FreeThreads: 1})
		if err := tr.Validate(); err != nil {
			t.Fatalf("chain %d: %v", chain, err)
		}
		ps, err := Scan(tr)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := assertMatchesReference(t, ps, Options{})
		st := g.Stats()
		t.Logf("chain %d: %d entries, %d rounds, %d rule edges", chain, st.Entries, st.Rounds, st.RuleEdges)
		if st.Rounds <= chain || st.Rounds > st.RuleEdges+1 {
			t.Errorf("chain %d: %d rounds, %d rule edges; want more than %d rounds and at most rule edges + 1",
				chain, st.Rounds, st.RuleEdges, chain)
		}
	}
}

// closureBenchSizes spans a small app-like trace up to a large
// chained fan-out where round-over-round recompute dominates.
var closureBenchSizes = []struct {
	name string
	cfg  synth.Config
}{
	{"small", synth.Config{Chain: 2, EventsPer: 4, FreeThreads: 2}},
	{"medium", synth.Config{Chain: 4, EventsPer: 8, FreeThreads: 8, Burst: 4, BurstEvents: 24}},
	{"large", synth.Config{Chain: 8, EventsPer: 4, FreeThreads: 16, Burst: 8, BurstEvents: 48}},
}

// BenchmarkFixpointClosure compares the incremental exit-row
// fixpoint against the node-level full-recompute reference on the
// same Prescan.
func BenchmarkFixpointClosure(b *testing.B) {
	for _, size := range closureBenchSizes {
		tr := synth.Trace(size.cfg)
		ps, err := Scan(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildFromScan(ps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildRef(ps, Options{})
			}
		})
	}
}
