package hb

import (
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// TestIncrementalClosureMatchesFullRecompute drives multi-round
// fixpoints (queue-rule chains across loopers force several rounds)
// and asserts the incremental closure answers every reachability
// query like a from-scratch recompute over the final edge set.
func TestIncrementalClosureMatchesFullRecompute(t *testing.T) {
	// Chained loopers: a driver sends k events to looper A (rule 1
	// orders them in round 1); each A event sends one event to looper
	// B, whose sends only become ordered once round 1's edges land —
	// rule 1 on B's queue fires in round 2, and so on down the chain.
	const chain = 4
	const k = 3
	b := newTB()
	driver := b.thread(1, "driver")
	loopers := make([]trace.TaskID, chain)
	queues := make([]trace.QueueID, chain)
	next := trace.TaskID(2)
	for i := range loopers {
		loopers[i] = b.thread(next, "L")
		queues[i] = trace.QueueID(i + 1)
		next++
	}
	events := make([][]trace.TaskID, chain)
	for i := range events {
		events[i] = make([]trace.TaskID, k)
		for j := range events[i] {
			events[i][j] = b.event(next, "ev", loopers[i], queues[i])
			next++
		}
	}
	b.add(trace.Entry{Task: driver, Op: trace.OpBegin})
	for _, lo := range loopers {
		b.add(trace.Entry{Task: lo, Op: trace.OpBegin})
	}
	for j := 0; j < k; j++ {
		b.add(trace.Entry{Task: driver, Op: trace.OpSend, Target: events[0][j], Queue: queues[0]})
	}
	b.add(trace.Entry{Task: driver, Op: trace.OpEnd})
	for i := 0; i < chain; i++ {
		for j := 0; j < k; j++ {
			ev := events[i][j]
			b.add(trace.Entry{Task: ev, Op: trace.OpBegin, Queue: queues[i]})
			if i+1 < chain {
				b.add(trace.Entry{Task: ev, Op: trace.OpSend, Target: events[i+1][j], Queue: queues[i+1]})
			}
			b.add(trace.Entry{Task: ev, Op: trace.OpEnd})
		}
	}
	g := b.build(t, Options{})
	if g.rounds < 3 {
		t.Fatalf("chain trace should need several fixpoint rounds, got %d", g.rounds)
	}
	assertClosureExact(t, g)

	conv := b.build(t, Options{Conventional: true})
	assertClosureExact(t, conv)
}

// TestIncrementalClosureOnAppTraces checks the same invariant on the
// realistic app-model traces.
func TestIncrementalClosureOnAppTraces(t *testing.T) {
	for _, name := range []string{"MyTracks", "Browser"} {
		spec, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no app %q", name)
		}
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {Conventional: true}} {
			g, err := Build(col.T, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertClosureExact(t, g)
		}
	}
}

// TestBuildFromScanSharedPrescan builds both model variants over one
// Prescan and checks they match independent Build calls.
func TestBuildFromScanSharedPrescan(t *testing.T) {
	spec, _ := apps.ByName("ZXing")
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	ps, err := Scan(col.T)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Conventional: true}} {
		shared, err := BuildFromScan(ps, opts)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Build(col.T, opts)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Stats() != solo.Stats() {
			t.Fatalf("opts %+v: shared-prescan stats %+v != solo stats %+v", opts, shared.Stats(), solo.Stats())
		}
		assertReachMatches(t, shared, nodeClosure(solo.adj))
	}
}
