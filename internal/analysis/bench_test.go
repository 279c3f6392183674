package analysis

import (
	"testing"

	"cafa/internal/hb"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// benchTraces spans an app-sized trace up to a large chained fan-out.
// The shapes mirror internal/hb's closure benchmarks so graph-level
// and pipeline-level numbers line up. No baseline is committed for
// them; BENCH.json at the repo root holds the test-driven rows.
var benchTraces = []struct {
	name string
	cfg  synth.Config
}{
	{"small", synth.Config{Chain: 2, EventsPer: 4, FreeThreads: 2}},
	{"large", synth.Config{Chain: 8, EventsPer: 4, FreeThreads: 16, Burst: 8, BurstEvents: 48}},
}

// BenchmarkBuildGraph measures one event-driven hb graph build — the
// incremental-closure fixpoint — over the synthetic traces.
func BenchmarkBuildGraph(b *testing.B) {
	for _, bt := range benchTraces {
		tr := synth.Trace(bt.cfg)
		b.Run(bt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hb.Build(tr, hb.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzePipeline measures the full concurrent pipeline
// (shared prescan, both graph variants and lockset in parallel, then
// the detector) over the synthetic traces.
func BenchmarkAnalyzePipeline(b *testing.B) {
	for _, bt := range benchTraces {
		tr := synth.Trace(bt.cfg)
		b.Run(bt.name, func(b *testing.B) {
			b.ReportAllocs()
			p := New(Options{})
			for i := 0; i < b.N; i++ {
				if _, err := p.Analyze(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeAll measures the multi-trace path: the large
// synthetic trace analyzed repeatedly by one Pipeline under ForEach.
func BenchmarkAnalyzeAll(b *testing.B) {
	traces := make([]*trace.Trace, 8)
	for i := range traces {
		traces[i] = synth.Trace(benchTraces[1].cfg)
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			p := New(Options{})
			for i := 0; i < b.N; i++ {
				_, errs := analyzeEach(p, workers, traces)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// serveShape is the upload cafa-serve's benchmark workload analyzes:
// a dense closure with about a thousand races per trace.
var serveShape = synth.Config{Chain: 8, EventsPer: 16, FreeThreads: 4, Burst: 8, BurstEvents: 120}

// BenchmarkEvidence measures one analysis of the serve upload shape
// with evidence off and on. With evidence on, an op also reads every
// record, so work the collector defers to its first read counts.
func BenchmarkEvidence(b *testing.B) {
	tr := synth.Trace(serveShape)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := New(Options{Evidence: on})
			for i := 0; i < b.N; i++ {
				res, err := p.Analyze(tr)
				if err != nil {
					b.Fatal(err)
				}
				if on && len(res.Evidence.Evidence()) == 0 {
					b.Fatal("no evidence records")
				}
			}
		})
	}
}
