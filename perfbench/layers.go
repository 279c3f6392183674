package main

import (
	"bytes"
	"fmt"

	"cafa/internal/analysis"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/provenance"
	"cafa/internal/report"
	"cafa/internal/static"
	"cafa/internal/trace"
)

// The traced ops below make the same calls as the untraced ones, one
// layer at a time in pipeline order, each inside its own span. The
// batch pipeline overlaps the two graph builds and the lockset pass;
// here they run serially, so the traced op shows what that overlap
// buys (analysis.overlap).

const mib = 1 << 20

// tracedBatch is analyzeBatch layer by layer. With evidence set it
// also runs the detector with a provenance collector and renders the
// evidence bundle and HTML triage page, as a cafa-serve job does.
func (t *tracer) tracedBatch(in *input, evidence bool) (*analysis.Result, []byte, error) {
	var (
		tr      *trace.Trace
		ps      *hb.Prescan
		g, conv *hb.Graph
		ls      *lockset.Sets
		det     *detect.Result
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"trace.decode", func() (err error) { tr, err = trace.DecodeAuto(bytes.NewReader(in.raw)); return err }},
		{"trace.validate", func() error { return tr.Validate() }},
		{"hb.prescan", func() (err error) { ps, err = hb.Scan(tr); return err }},
		{"hb.graph", func() (err error) { g, err = hb.BuildFromScan(ps, hb.Options{}); return err }},
		{"hb.conventional", func() (err error) { conv, err = hb.BuildFromScan(ps, hb.Options{Conventional: true}); return err }},
		{"lockset", func() (err error) { ls, err = lockset.Compute(tr); return err }},
		{"detect", func() (err error) {
			det, err = detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls}, detect.Options{})
			return err
		}},
	}
	for _, s := range steps {
		if err := t.span(s.name, s.fn); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", in.name, s.name, err)
		}
	}
	res := &analysis.Result{
		Trace: tr, Races: det.Races, Stats: det.Stats,
		GraphStats: g.Stats(), ConvStats: conv.Stats(),
		Graph: g, Conventional: conv, Locks: ls,
	}
	if evidence {
		col := provenance.NewCollector(tr, g, conv, ls, provenance.Options{})
		err := t.span("detect.evidence", func() (err error) {
			det, err = detect.Detect(detect.Input{Trace: tr, Graph: g, Conventional: conv, Locks: ls, Collector: col}, detect.Options{})
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: detect with evidence: %w", in.name, err)
		}
		res.Evidence = col
	}
	out, err := t.render(in, res)
	if err != nil {
		return nil, nil, err
	}
	if evidence {
		if err := t.artifacts(in, res, out); err != nil {
			return nil, nil, err
		}
	}
	return res, out, nil
}

// render renders the JSON report and records the counts the analysis
// layers report for this input.
func (t *tracer) render(in *input, res *analysis.Result) ([]byte, error) {
	var out []byte
	err := t.span("report.render", func() (err error) { out, err = render(in.name, res); return err })
	if err != nil {
		return nil, err
	}
	gs := res.GraphStats
	t.add("hb.nodes", float64(gs.Nodes))
	t.add("hb.base_edges", float64(gs.BaseEdges))
	t.add("hb.rule_edges", float64(gs.RuleEdges))
	t.peak("hb.rounds", float64(gs.Rounds))
	t.peak("hb.closure_mb", float64(closureBytes(gs.Nodes))/mib)
	t.add("detect.candidates", float64(res.Stats.Candidates))
	t.add("detect.races", float64(len(res.Races)))
	t.add("detect.filtered_ordered", float64(res.Stats.FilteredOrdered))
	t.add("report.bytes", float64(len(out)))
	return out, nil
}

// closureBytes is the size of the two models' reachability bit
// matrices over n reduced nodes: n rows of ⌈n/64⌉ words each, twice.
func closureBytes(n int) int { return 2 * n * ((n + 63) / 64) * 8 }

// artifacts renders the evidence bundle and the HTML triage page the
// way a cafa-serve job does.
func (t *tracer) artifacts(in *input, res *analysis.Result, out []byte) error {
	rep := []*report.FileReport{{File: in.name, Trace: res.Trace, Result: res}}
	var b *provenance.Bundle
	var ev, html bytes.Buffer
	steps := []struct {
		name string
		fn   func() error
	}{
		{"provenance.bundle", func() error { b = report.BuildBundle(rep); return nil }},
		{"provenance.bundle_json", func() error { return b.WriteJSON(&ev) }},
		{"provenance.html", func() error { return provenance.WriteHTML(&html, b) }},
	}
	for _, s := range steps {
		if err := t.span(s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %s: %w", in.name, s.name, err)
		}
	}
	t.add("provenance.artifact_mb", float64(len(out)+ev.Len()+html.Len())/mib)
	return nil
}

// tracedStatic runs the whole-program static passes on an app model's
// program with its closed-world entry points. No cafa-analyze op runs
// them today; the cost is recorded so that putting them on the path
// shows.
func (t *tracer) tracedStatic(in *input) error {
	var st *static.Result
	if err := t.span("static", func() error {
		st = static.AnalyzeOpts(in.prog, static.Options{Roots: in.roots})
		return nil
	}); err != nil {
		return err
	}
	t.add("static.ordered_pairs", float64(st.Orders.Ordered()))
	return nil
}
