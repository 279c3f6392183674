package cafa

import (
	"encoding/json"
	"testing"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/asm"
	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/hb"
	"cafa/internal/provenance"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// evidenceOverheadThreshold is the acceptance bound for the
// provenance collector: attaching evidence collection may cost at
// most 10% wall-clock on the ten-app analysis suite. Override with
// EVIDENCE_OVERHEAD_MAX (a ratio) on noisy hosts.
const evidenceOverheadThreshold = 1.10

// TestEvidenceDoesNotChangeResults is the collector's passivity
// proof: races and stats over the ten-app suite are byte-identical
// with and without evidence collection attached.
func TestEvidenceDoesNotChangeResults(t *testing.T) {
	traces := suiteTraces(t)
	off, err := analysis.New(analysis.Options{}).AnalyzeAll(traces)
	if err != nil {
		t.Fatal(err)
	}
	on, err := analysis.New(analysis.Options{Evidence: true}).AnalyzeAll(traces)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		Races []detect.Race
		Stats detect.Stats
	}
	for i := range traces {
		if off[i].Evidence != nil {
			t.Fatalf("trace %d: collector attached without Options.Evidence", i)
		}
		if on[i].Evidence == nil {
			t.Fatalf("trace %d: Options.Evidence set but no collector", i)
		}
		a, err := json.Marshal(outcome{off[i].Races, off[i].Stats})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(outcome{on[i].Races, on[i].Stats})
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("trace %d (%s): evidence collection changed the detector outcome\noff: %s\non:  %s",
				i, apps.Registry[i].Name, a, b)
		}
	}
}

// TestEvidenceOverhead bounds the collector's cost on the ten-app
// suite. -update-bench records BENCH_provenance.json.
func TestEvidenceOverhead(t *testing.T) {
	evidenceGate(t, suiteTraces(t)).run(t)
}

// evidenceGate times the pipeline over traces without and with the
// provenance collector attached.
func evidenceGate(tb testing.TB, traces []*trace.Trace) overheadGate {
	pOff := analysis.New(analysis.Options{})
	pOn := analysis.New(analysis.Options{Evidence: true})
	return overheadGate{
		name:      "evidence",
		threshold: evidenceOverheadThreshold,
		env:       "EVIDENCE_OVERHEAD_MAX",
		test:      "TestEvidenceOverhead",
		bench:     "BENCH_provenance.json",
		traces:    traces,
		off:       func(tr *trace.Trace) time.Duration { return analyzeTimed(tb, pOff, tr) },
		on:        func(tr *trace.Trace) time.Duration { return analyzeTimed(tb, pOn, tr) },
	}
}

// TestEvidenceAllStagesWitnessed checks that the ten-app suite's
// evidence bundles carry at least one retained witness for every
// dynamic prune stage. The static-guard stage is the one exception:
// on the suite the dynamic if-guard heuristic always matches first
// (the static prune is its backstop for dynamically-missed guards),
// so its witness is asserted on a dedicated alias-eviction fixture
// with the deref site statically marked, the same shape
// internal/detect uses to test the prune itself.
func TestEvidenceAllStagesWitnessed(t *testing.T) {
	traces := suiteTraces(t)
	results, err := analysis.New(analysis.Options{Evidence: true}).AnalyzeAll(traces)
	if err != nil {
		t.Fatal(err)
	}
	var union [detect.NumPruneStages]int
	retained := map[detect.PruneStage]bool{}
	for i, res := range results {
		counts := res.Evidence.StageCounts()
		for s, n := range counts {
			union[s] += n
		}
		in := res.Evidence.Bundle(apps.Registry[i].Name)
		for _, p := range in.Pruned {
			for s := detect.PruneStage(0); int(s) < detect.NumPruneStages; s++ {
				if p.Stage == s.String() {
					retained[s] = true
				}
			}
		}
	}
	for _, stage := range []detect.PruneStage{
		detect.PruneOrdered, detect.PruneLockset, detect.PruneIfGuard,
		detect.PruneIntraAlloc, detect.PruneDedup,
	} {
		if union[stage] == 0 {
			t.Errorf("suite produced no %v prunes at all", stage)
		}
		if !retained[stage] {
			t.Errorf("suite bundles retain no %v witness", stage)
		}
	}

	t.Run("static-guard", func(t *testing.T) {
		w := staticGuardWitness(t)
		if w.W.Stage != detect.PruneStaticGuard {
			t.Fatalf("witness stage = %v, want static-guard", w.W.Stage)
		}
	})
}

// staticGuardSrc is a minimal same-looper use/free pair with no
// dynamic null test: two sender threads post the events, so they are
// concurrent, and only a static guard annotation can prune the use.
const staticGuardSrc = `
.method run(this) regs=1
    return-void
.end

.method use(h) regs=3
    iget v1, h, ptr
    invoke-virtual run, v1
    return-void
.end

.method free(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method sendUse(h) regs=5
    sget-int v1, mainQ
    const-method v2, use
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end

.method sendFree(h) regs=5
    const-int v3, #20
    sleep v3
    sget-int v1, mainQ
    const-method v2, free
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end
`

// staticGuardWitness runs the fixture twice: once to locate the
// reported use site, once with that site in StaticGuards and a
// provenance collector attached, returning the static-guard prune
// record.
func staticGuardWitness(t *testing.T) provenance.Pruned {
	t.Helper()
	prog, err := asm.Assemble(staticGuardSrc)
	if err != nil {
		t.Fatal(err)
	}
	record := func() (*trace.Trace, *hb.Graph) {
		col := trace.NewCollector()
		s := sim.NewSystem(prog, sim.Config{Tracer: col, Seed: 1})
		main := s.AddLooper("main", 0)
		s.Heap().SetStatic(prog.FieldID("mainQ"), dvm.Int64(main.Handle()))
		h := s.Heap().New("Activity")
		pay := s.Heap().New("Payload")
		h.Set(prog.FieldID("ptr"), dvm.Obj(pay.ID))
		if _, err := s.StartThread("su", "sendUse", dvm.Obj(h.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StartThread("sf", "sendFree", dvm.Obj(h.ID)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		g, err := hb.Build(col.T, hb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return col.T, g
	}

	tr, g := record()
	res, err := detect.Detect(detect.Input{Trace: tr, Graph: g}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("fixture races = %d, want 1 (no dynamic guard should match)", len(res.Races))
	}
	u := res.Races[0].Use

	col := provenance.NewCollector(tr, g, nil, nil, provenance.Options{})
	guards := map[dataflow.Key]bool{{Method: u.Method, PC: u.DerefPC}: true}
	res, err = detect.Detect(detect.Input{
		Trace: tr, Graph: g, StaticGuards: guards, Collector: col,
	}, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 || res.Stats.FilteredStaticGuard != 1 {
		t.Fatalf("static guard did not prune: races=%d FilteredStaticGuard=%d",
			len(res.Races), res.Stats.FilteredStaticGuard)
	}
	for _, p := range col.PrunedRecords() {
		if p.W.Stage == detect.PruneStaticGuard {
			return p
		}
	}
	t.Fatal("collector retained no static-guard witness")
	return provenance.Pruned{}
}
