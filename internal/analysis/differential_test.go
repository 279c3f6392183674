package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

const testScale = 16

func appTrace(t testing.TB, spec apps.Spec) *trace.Trace {
	t.Helper()
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	return col.T
}

// serialAnalyze is the seed pipeline, verbatim: three strictly serial
// full passes over the trace, each graph built stand-alone.
func serialAnalyze(t *testing.T, tr *trace.Trace, opts detect.Options) (*detect.Result, hb.Stats, hb.Stats) {
	t.Helper()
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := hb.Build(tr, hb.Options{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := lockset.Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, g.Stats(), conv.Stats()
}

// TestPipelineMatchesSerialOnAllApps is the differential acceptance
// test: on every one of the ten app scenarios the concurrent pipeline
// with the incremental closure must report byte-identical races and
// identical DetectStats / hb.Stats versus the serial seed path.
func TestPipelineMatchesSerialOnAllApps(t *testing.T) {
	p := New(Options{})
	for _, spec := range apps.Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := appTrace(t, spec)
			wantRes, wantG, wantConv := serialAnalyze(t, tr, detect.Options{})
			got, err := p.Analyze(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Races, wantRes.Races) {
				t.Errorf("races differ:\n  pipeline: %+v\n  serial:   %+v", got.Races, wantRes.Races)
			}
			if got.Stats != wantRes.Stats {
				t.Errorf("DetectStats differ: pipeline %+v, serial %+v", got.Stats, wantRes.Stats)
			}
			if got.GraphStats != wantG {
				t.Errorf("hb.Stats differ: pipeline %+v, serial %+v", got.GraphStats, wantG)
			}
			if got.ConvStats != wantConv {
				t.Errorf("conventional hb.Stats differ: pipeline %+v, serial %+v", got.ConvStats, wantConv)
			}
			// Byte-identical reports: the rendered lines must match too.
			var a, b bytes.Buffer
			for _, r := range wantRes.Races {
				a.WriteString(r.Describe(tr))
				a.WriteByte('\n')
			}
			for _, r := range got.Races {
				b.WriteString(r.Describe(tr))
				b.WriteByte('\n')
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("rendered reports differ:\n--- serial\n%s--- pipeline\n%s", a.String(), b.String())
			}
		})
	}
}

// TestPipelineMatchesSerialWithAblations spot-checks option plumbing:
// ablation switches and the naive baseline must flow through the
// pipeline unchanged.
func TestPipelineMatchesSerialWithAblations(t *testing.T) {
	spec, _ := apps.ByName("Firefox")
	tr := appTrace(t, spec)
	for _, dopts := range []detect.Options{
		{DisableIfGuard: true},
		{DisableLockset: true, KeepDuplicates: true},
		{DisableIfGuard: true, DisableIntraEventAlloc: true, DisableLockset: true},
	} {
		wantRes, _, _ := serialAnalyze(t, tr, dopts)
		got, err := Analyze(tr, Options{Detect: dopts, Naive: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Races, wantRes.Races) || got.Stats != wantRes.Stats {
			t.Errorf("opts %+v: pipeline diverges from serial", dopts)
		}
		g, err := hb.Build(tr, hb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Naive, detect.Naive(g)) {
			t.Errorf("opts %+v: naive baseline differs", dopts)
		}
	}
}

// analyzeEach drives one shared Pipeline over traces with ForEach, as
// cafa-analyze -j does: slot i holds trace i's result or error.
func analyzeEach(p *Pipeline, workers int, traces []*trace.Trace) ([]*Result, []error) {
	results := make([]*Result, len(traces))
	errs := make([]error, len(traces))
	ForEach(workers, len(traces), func(i int) {
		results[i], errs[i] = p.Analyze(traces[i])
	})
	return results, errs
}

// TestForEachPipelineOrderAndErrors checks the contract the CLIs rely
// on: one Pipeline shared by ForEach's workers returns every trace's
// result in its input slot, identical to the serial pipeline whatever
// the worker count, and a malformed trace fails its own slot only.
func TestForEachPipelineOrderAndErrors(t *testing.T) {
	var traces []*trace.Trace
	var names []string
	for _, spec := range apps.Registry[:4] {
		traces = append(traces, appTrace(t, spec))
		names = append(names, spec.Name)
	}
	want := make([]*detect.Result, len(traces))
	for i, tr := range traces {
		want[i], _, _ = serialAnalyze(t, tr, detect.Options{})
	}
	p := New(Options{})
	for _, workers := range []int{1, 2, 8} {
		results, errs := analyzeEach(p, workers, traces)
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("workers=%d: %s: %v", workers, names[i], errs[i])
			}
			if res.Trace != traces[i] {
				t.Fatalf("workers=%d: result %d out of order", workers, i)
			}
			if !reflect.DeepEqual(res.Races, want[i].Races) || res.Stats != want[i].Stats {
				t.Errorf("workers=%d: %s: result diverges from serial", workers, names[i])
			}
		}
	}

	// A malformed trace (duplicate begin) fails its slot but not the
	// others.
	bad := trace.New()
	bad.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "T"})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
	results, errs := analyzeEach(p, 2, []*trace.Trace{traces[0], bad, traces[1]})
	if errs[1] == nil || results[1] != nil {
		t.Errorf("malformed trace: result %v, error %v; want nil result and an error", results[1], errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil || results[i] == nil {
			t.Errorf("slot %d: good trace lost its result: %v", i, errs[i])
		}
	}
}
