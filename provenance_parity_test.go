package cafa

import (
	"encoding/json"
	"testing"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
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
	off := analyzeSuite(t, analysis.New(analysis.Options{}), traces)
	on := analyzeSuite(t, analysis.New(analysis.Options{Evidence: true}), traces)
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
// prune stage the detector has.
func TestEvidenceAllStagesWitnessed(t *testing.T) {
	results := analyzeSuite(t, analysis.New(analysis.Options{Evidence: true}), suiteTraces(t))
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
	for stage := detect.PruneStage(0); int(stage) < detect.NumPruneStages; stage++ {
		if union[stage] == 0 {
			t.Errorf("suite produced no %v prunes at all", stage)
		}
		if !retained[stage] {
			t.Errorf("suite bundles retain no %v witness", stage)
		}
	}
}

// analyzeSuite runs p over every trace in order.
func analyzeSuite(tb testing.TB, p *analysis.Pipeline, traces []*trace.Trace) []*analysis.Result {
	tb.Helper()
	out := make([]*analysis.Result, len(traces))
	for i, tr := range traces {
		res, err := p.Analyze(tr)
		if err != nil {
			tb.Fatalf("trace %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}
