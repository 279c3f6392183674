package cafa

import (
	"testing"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/obs"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// obsOverheadThreshold is the acceptance bound from the obs design
// contract: enabling instrumentation may cost at most 5% wall-clock
// on the ten-app analysis suite. CI hosts with noisy neighbours can
// loosen it via OBS_OVERHEAD_MAX (a ratio, e.g. "1.10").
const obsOverheadThreshold = 1.05

// suiteTraces records all ten app models once (benchScale, seed 1).
func suiteTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	traces := make([]*trace.Trace, 0, len(apps.Registry))
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, benchScale)
		if err != nil {
			tb.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			tb.Fatal(err)
		}
		traces = append(traces, col.T)
	}
	return traces
}

// analyzeTimed analyzes one trace and returns the wall-clock time.
func analyzeTimed(tb testing.TB, p *analysis.Pipeline, tr *trace.Trace) time.Duration {
	tb.Helper()
	t0 := time.Now()
	if _, err := p.Analyze(tr); err != nil {
		tb.Fatal(err)
	}
	return time.Since(t0)
}

// TestObsOverhead is the obs-layer performance proof: the ten-app
// analysis suite with instrumentation enabled must stay within the
// overhead threshold of the uninstrumented run.
func TestObsOverhead(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("obs unexpectedly enabled at test start")
	}
	obsGate(t, suiteTraces(t)).run(t)
}

// obsGate times the pipeline over traces with obs disabled and
// enabled.
func obsGate(tb testing.TB, traces []*trace.Trace) overheadGate {
	p := analysis.New(analysis.Options{})
	return overheadGate{
		name:      "obs",
		threshold: obsOverheadThreshold,
		env:       "OBS_OVERHEAD_MAX",
		traces:    traces,
		off:       func(tr *trace.Trace) time.Duration { return analyzeTimed(tb, p, tr) },
		on: func(tr *trace.Trace) time.Duration {
			obs.Enable()
			d := analyzeTimed(tb, p, tr)
			obs.Disable()
			obs.Reset()
			return d
		},
	}
}
