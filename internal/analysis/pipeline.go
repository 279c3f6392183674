// Package analysis orchestrates CAFA's offline half. One driver
// serves both entry points: every pass is a per-entry consumer —
// hb.Scanner, lockset.Tracker and detect.Extractor — and one forward
// sweep feeds each entry through all of them. Ingest (stream.go)
// sweeps trace bytes as they are decoded and validated — the path
// both front ends take; Analyze sweeps a trace already in memory
// (simulator output, the cafa façade). The shared finish step then
// builds the event-driven causality model (a fixpoint over adaptive
// closure rows) and the conventional one (its adjacency alone) in
// sequence over the scanned frontier, and runs the use-free detector,
// which projects the conventional closure onto the candidates it
// classifies. One Pipeline may analyze many traces concurrently;
// ForEach is the bounded pool the front ends drive it with.
package analysis

import (
	"runtime"
	"sync"

	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/trace"
)

// Pipeline observability (internal/obs). Each analyzed trace gets a
// span tree: the per-trace span (one track — concurrent traces show
// up as parallel tracks) with a serial ingest child (the per-entry
// sweep: "stream.ingest" over trace bytes, "ingest" over an in-memory
// trace), a serial prescan child (base edges and anchor index), one
// serial child per causality model ("hb.graph", "hb.conventional"),
// and a serial detect child. Counters track traces analyzed and
// failed.
var (
	cTracesAnalyzed = obs.NewCounter("analysis_traces_analyzed_total")
	cTraceErrors    = obs.NewCounter("analysis_trace_errors_total")
)

// Options configures a Pipeline.
type Options struct {
	// Detect carries the detector's ablation switches.
	Detect detect.Options
	// Naive additionally runs the low-level conflicting-access
	// baseline (the paper's §4.1 motivation).
	Naive bool
	// DerefSources, when non-nil, enables the static data-flow use
	// matching extension (§6.3); see detect.Input.DerefSources. The
	// intra-method map (dataflow.DerefSources) and the
	// interprocedural one (internal/static's ResolveDerefs) plug in
	// alike.
	DerefSources map[dataflow.Key]dataflow.Source
	// Evidence attaches a provenance.Collector to each Detect call:
	// Result.Evidence then carries per-race evidence records and
	// per-filtered-candidate prune witnesses. Detection results are
	// identical either way; the switch only buys the bookkeeping.
	Evidence bool
	// EvidenceOptions configures the collector when Evidence is set.
	EvidenceOptions provenance.Options
}

// Result is the analysis of one trace.
type Result struct {
	// Trace is the analyzed trace.
	Trace *trace.Trace
	// Races are the reported use-free races, deduplicated by code
	// site and in deterministic SiteKey order.
	Races []detect.Race
	// Stats counts the detector's pipeline stages.
	Stats detect.Stats
	// GraphStats summarizes event-driven causality-model construction.
	GraphStats hb.Stats
	// ConvStats summarizes the conventional baseline model.
	ConvStats hb.Stats
	// Naive holds the low-level baseline races when requested.
	Naive []detect.NaiveRace
	// Graph and Conventional expose the built models for consumers
	// that need ordering queries after detection (explain mode).
	Graph        *hb.Graph
	Conventional *hb.Graph
	// Locks are the per-operation held-lock sets.
	Locks *lockset.Sets
	// Evidence is the provenance collector attached to the detector
	// run, populated when Options.Evidence is set (nil otherwise).
	Evidence *provenance.Collector
	// Stacks are the call stacks at every extracted use deref and
	// free, keyed by trace index: the detect.Extractor captures them
	// as entries pass.
	Stacks map[int][]trace.MethodID
}

// Pipeline is a reusable analyzer. The zero value is ready to use;
// New applies Options. A Pipeline holds no per-trace state, so one
// may analyze many traces concurrently.
type Pipeline struct {
	opts Options
}

// New returns a Pipeline with the given options.
func New(opts Options) *Pipeline {
	return &Pipeline{opts: opts}
}

// Analyze runs the full offline pipeline on one trace: one sweep
// feeds every entry to the per-entry passes, then the two causality
// models are built and the detector runs over them. The
// trace is not validated here; it is for traces already in memory.
// Trace bytes go through AnalyzeStream, which validates as it
// decodes.
func (p *Pipeline) Analyze(tr *trace.Trace) (*Result, error) {
	sp := obs.Start("pipeline.analyze")
	defer sp.End()
	return p.AnalyzeSpanned(tr, sp)
}

// AnalyzeSpanned is Analyze under a caller-owned obs span (nil is
// fine): per-pass sub-spans attach to it and it gains a "races"
// attribute on success (the finish step sets it, so a streamed
// FinishSpanned does too), so callers that label per-trace spans see
// the detector outcome on the span itself. The caller Ends sp.
func (p *Pipeline) AnalyzeSpanned(tr *trace.Trace, sp *obs.Span) (*Result, error) {
	a := p.newAnalyzer(tr)
	spIn := sp.Child("ingest")
	for i := range tr.Entries {
		if err := a.consume(&tr.Entries[i]); err != nil {
			spIn.End()
			cTraceErrors.Inc()
			return nil, err
		}
	}
	spIn.End()
	return a.finish(sp)
}

// analyzer is the one analysis driver behind Analyze and
// StreamAnalyzer: the per-entry passes, advanced together by consume,
// and the finish step that joins them into a Result.
type analyzer struct {
	opts *Options
	tr   *trace.Trace

	scanner *hb.Scanner
	locks   *lockset.Tracker
	ext     *detect.Extractor
	n       int // entries consumed
}

// newAnalyzer returns an analyzer over tr, which supplies the task and
// name tables (its Entries may be empty, as for a stream header).
func (p *Pipeline) newAnalyzer(tr *trace.Trace) *analyzer {
	return &analyzer{
		opts:    &p.opts,
		tr:      tr,
		scanner: hb.NewScanner(tr),
		locks:   lockset.NewTracker(),
		ext:     detect.NewExtractor(p.opts.DerefSources),
	}
}

// consume advances every pass by one entry, in trace order, so the
// first fault in trace order is the one reported. The entry is not
// retained.
func (a *analyzer) consume(e *trace.Entry) error {
	if err := a.scanner.Consume(e); err != nil {
		return err
	}
	if err := a.locks.Consume(a.n, e); err != nil {
		return err
	}
	a.ext.Consume(a.n, e)
	a.n++
	return nil
}

// finish seals the scan, builds both causality models, and runs the
// detector over the extraction.
func (a *analyzer) finish(sp *obs.Span) (*Result, error) {
	opts := a.opts
	spScan := sp.Child("hb.prescan")
	ps := a.scanner.Finish()
	spScan.End()

	spG := sp.Child("hb.graph")
	g, err := hb.BuildFromScan(ps, hb.Options{})
	spG.End()
	var conv *hb.Graph
	if err == nil {
		spC := sp.Child("hb.conventional")
		conv, err = hb.BuildFromScan(ps, hb.Options{Conventional: true})
		spC.End()
	}
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	ls := a.locks.Sets()
	in := detect.Input{
		Trace:        a.tr,
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
	}
	var col *provenance.Collector
	if opts.Evidence {
		col = provenance.NewCollector(a.tr, g, conv, ls, opts.EvidenceOptions)
		in.Collector = col
	}
	spDet := sp.Child("detect")
	res, err := detect.DetectExtracted(in, a.ext, opts.Detect)
	spDet.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	out := &Result{
		Trace:        a.tr,
		Races:        res.Races,
		Stats:        res.Stats,
		GraphStats:   g.Stats(),
		ConvStats:    conv.Stats(),
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
		Evidence:     col,
		Stacks:       a.ext.Stacks(),
	}
	if opts.Naive {
		spN := sp.Child("detect.naive")
		out.Naive = detect.Naive(g)
		spN.End()
	}
	cTracesAnalyzed.Inc()
	sp.SetAttr(obs.Int("races", len(out.Races)))
	return out, nil
}

// Analyze is the one-shot convenience form of Pipeline.Analyze.
func Analyze(tr *trace.Trace, opts Options) (*Result, error) {
	return New(opts).Analyze(tr)
}

// ForEach calls fn(i) for every i in [0, n) from up to `workers`
// concurrent goroutines (0 = GOMAXPROCS) and waits for all calls to
// finish. It is the bounded pool shared by the report harness and the
// CLIs, which drive one Pipeline with it; fn must handle its own
// synchronization for any shared state beyond its own index.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
