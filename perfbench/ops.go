package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/report"
	"cafa/internal/trace"
)

// pipeline is cafa-analyze's default configuration.
var pipeline = analysis.New(analysis.Options{})

// analyzeBatch is `cafa-analyze -json` on one file.
func analyzeBatch(in *input) (*analysis.Result, []byte, error) {
	tr, err := trace.DecodeAuto(bytes.NewReader(in.raw))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: decode: %w", in.name, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%s: trace validation: %w", in.name, err)
	}
	res, err := pipeline.Analyze(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: analyze: %w", in.name, err)
	}
	out, err := render(in.name, res)
	return res, out, err
}

func render(name string, res *analysis.Result) ([]byte, error) {
	var out bytes.Buffer
	if err := report.RenderJSON(&out, []*report.FileReport{{File: name, Trace: res.Trace, Result: res}}); err != nil {
		return nil, fmt.Errorf("%s: render: %w", name, err)
	}
	return out.Bytes(), nil
}

// collected collects garbage and returns the memory statistics then;
// HeapAlloc is the live heap.
func collected() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// sample is one measured op.
type sample struct {
	dur time.Duration
	// retained is the live heap the op's result holds, over the heap
	// before the op.
	retained uint64
	// alloc and mallocs are what the op allocated.
	alloc, mallocs uint64
}

// cliOp runs one closed-loop CLI op: every input once, in order, each
// on a collected heap as a fresh process would have. Only the analyses
// are timed. outputs holds each input's first report; every later
// report of the same input must match it byte for byte.
func cliOp(inputs []input, outputs map[string][]byte) (sample, error) {
	var s sample
	for i := range inputs {
		in := &inputs[i]
		base := collected()
		start := time.Now()
		res, out, err := analyzeBatch(in)
		s.dur += time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.alloc += after.TotalAlloc - base.TotalAlloc
		s.mallocs += after.Mallocs - base.Mallocs
		if err != nil {
			return s, err
		}
		if held := collected().HeapAlloc; held > base.HeapAlloc {
			s.retained = max(s.retained, held-base.HeapAlloc)
		}
		if err := checkOutput(in, res, out, outputs); err != nil {
			return s, err
		}
	}
	return s, nil
}

// checkOutput verifies one report: the race count, the planted truth
// for app models, and that it matches the input's earlier reports.
func checkOutput(in *input, res *analysis.Result, out []byte, outputs map[string][]byte) error {
	if in.truth != nil {
		if err := scoreTruth(in, res); err != nil {
			return err
		}
	}
	if len(res.Races) != in.races {
		return fmt.Errorf("%s: %d races, want %d", in.name, len(res.Races), in.races)
	}
	if n := reportedRaces(out); n != in.races {
		return fmt.Errorf("%s: report lists %d races, want %d", in.name, n, in.races)
	}
	if prev, ok := outputs[in.name]; !ok {
		outputs[in.name] = out
	} else if !bytes.Equal(prev, out) {
		return fmt.Errorf("%s: report differs from an earlier report of the same input", in.name)
	}
	return nil
}

// reportedRaces counts the race records in a rendered JSON report.
func reportedRaces(out []byte) int { return bytes.Count(out, []byte(`"class":`)) }

// plantedClass is the detector class each harmful label must get.
var plantedClass = map[apps.Label]detect.Class{
	apps.LabelTrueA: detect.ClassIntraThread,
	apps.LabelTrueB: detect.ClassInterThread,
	apps.LabelTrueC: detect.ClassConventional,
}

// scoreTruth checks an app model's races against its planted ground
// truth: every planted race found, harmful ones with their planted
// class, no benign scenario and no unplanted field reported.
func scoreTruth(in *input, res *analysis.Result) error {
	truth := make(map[string]apps.Planted, len(in.truth))
	for _, pl := range in.truth {
		truth[pl.Field] = pl
	}
	seen := make(map[string]bool)
	for _, r := range res.Races {
		field := res.Trace.FieldName(r.Use.Var.Field())
		pl, ok := truth[field]
		if !ok {
			return fmt.Errorf("%s: unexpected race on %s", in.name, field)
		}
		if pl.Label == apps.LabelFiltered {
			return fmt.Errorf("%s: benign scenario %s reported", in.name, field)
		}
		if want, harmful := plantedClass[pl.Label]; harmful && r.Class != want {
			return fmt.Errorf("%s: %s planted %s, detected %s", in.name, field, pl.Label, r.Class)
		}
		seen[field] = true
	}
	for _, pl := range in.truth {
		if pl.Label != apps.LabelFiltered && !seen[pl.Field] {
			return fmt.Errorf("%s: planted race %s (%s) missed", in.name, pl.Field, pl.Label)
		}
	}
	return nil
}
