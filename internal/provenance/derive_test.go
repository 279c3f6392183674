package provenance_test

import (
	"slices"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// TestDerivedEvidenceMatchesPerRace checks the collector's shared
// derivation against one CommonAncestor and two Explain calls per
// race, on the serve upload shape, the large synthetic shape, the ten
// apps at benchmark scale, and one race whose ancestor is in the use's
// task. The apps add races with no common ancestor.
func TestDerivedEvidenceMatchesPerRace(t *testing.T) {
	traces := map[string]*trace.Trace{
		"serve": synth.Trace(synth.Config{Chain: 8, EventsPer: 16, FreeThreads: 4, Burst: 8, BurstEvents: 120}),
		"large": synth.Trace(synth.Config{Chain: 8, EventsPer: 4, FreeThreads: 16, Burst: 8, BurstEvents: 48}),
	}
	traces["send-then-use"] = sendThenUse(t)
	names := []string{"serve", "large", "send-then-use"}
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		traces[spec.Name] = col.T
		names = append(names, spec.Name)
	}
	p := analysis.New(analysis.Options{Evidence: true})
	var records, none, sameTask int
	for _, name := range names {
		tr := traces[name]
		res, err := p.Analyze(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := res.Graph
		for _, ev := range res.Evidence.Evidence() {
			use, free := ev.Race.Use.ReadIdx, ev.Race.Free.Idx
			records++
			anc := g.CommonAncestor(use, free)
			if ev.Ancestor != anc {
				t.Fatalf("%s: race %d/%d: Ancestor %d, per-race %d", name, use, free, ev.Ancestor, anc)
			}
			var toUse, toFree []int
			if anc < 0 {
				none++
			} else {
				toUse, toFree = g.Explain(anc, use), g.Explain(anc, free)
				if at := tr.Entries[anc].Task; at == ev.Race.Use.Task || at == ev.Race.Free.Task {
					sameTask++
				}
			}
			if !slices.Equal(ev.ToUse, toUse) || !slices.Equal(ev.ToFree, toFree) {
				t.Fatalf("%s: race %d/%d: paths %v / %v, per-race %v / %v", name, use, free, ev.ToUse, ev.ToFree, toUse, toFree)
			}
		}
	}
	t.Logf("%d records, %d without an ancestor, %d with the ancestor in the use's or free's task", records, none, sameTask)
	if none == 0 || sameTask == 0 {
		t.Fatalf("the traces miss a case: %d without an ancestor, %d same-task", none, sameTask)
	}
}

// sendThenUse is one race whose nearest common ancestor shares the
// use's task: event A sends B to another looper, then uses the
// pointer B frees.
func sendThenUse(t *testing.T) *trace.Trace {
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "main"})
	tr.DeclareTask(trace.TaskInfo{ID: 2, Kind: trace.KindThread, Name: "worker"})
	tr.DeclareTask(trace.TaskInfo{ID: 3, Kind: trace.KindEvent, Name: "A", Looper: 1, Queue: 1})
	tr.DeclareTask(trace.TaskInfo{ID: 4, Kind: trace.KindEvent, Name: "B", Looper: 2, Queue: 2})
	for i, e := range []trace.Entry{
		{Task: 1, Op: trace.OpBegin},
		{Task: 2, Op: trace.OpBegin},
		{Task: 1, Op: trace.OpSend, Target: 3, Queue: 1},
		{Task: 3, Op: trace.OpBegin, Queue: 1},
		{Task: 3, Op: trace.OpSend, Target: 4, Queue: 2},
		{Task: 3, Op: trace.OpPtrRead, Var: 1, Value: 7, PC: 1, Method: 1},
		{Task: 3, Op: trace.OpDeref, Value: 7, PC: 2, Method: 1},
		{Task: 3, Op: trace.OpEnd},
		{Task: 4, Op: trace.OpBegin, Queue: 2},
		{Task: 4, Op: trace.OpPtrWrite, Var: 1, Value: trace.NullObj, PC: 3, Method: 2},
		{Task: 4, Op: trace.OpEnd},
		{Task: 1, Op: trace.OpEnd},
		{Task: 2, Op: trace.OpEnd},
	} {
		e.Time = int64(i)
		tr.Append(e)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}
