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
// classifies. A Pipeline additionally analyzes many traces in
// parallel under a bounded worker pool (batch mode).
package analysis

import (
	"fmt"
	"runtime"
	"sync"

	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/static"
	"cafa/internal/trace"
)

// Pipeline observability (internal/obs). Each analyzed trace gets a
// span tree: the per-trace span (one track — batch concurrency shows
// up as parallel tracks) with a serial ingest child (the per-entry
// sweep: "stream.ingest" over trace bytes, "ingest" over an in-memory
// trace), a serial prescan child (base edges and anchor index), one
// serial child per causality model ("hb.graph", "hb.conventional"),
// and a serial detect child. Counters track batch scheduling.
var (
	cTracesAnalyzed = obs.NewCounter("analysis_traces_analyzed_total")
	cTraceErrors    = obs.NewCounter("analysis_trace_errors_total")
	cBatchTraces    = obs.NewCounter("analysis_batch_traces_total")
)

// Options configures a Pipeline.
type Options struct {
	// Detect carries the detector's ablation switches.
	Detect detect.Options
	// Naive additionally runs the low-level conflicting-access
	// baseline (the paper's §4.1 motivation).
	Naive bool
	// DerefSources, when non-nil, enables the static data-flow use
	// matching extension (§6.3); see detect.Input.DerefSources.
	DerefSources map[dataflow.Key]dataflow.Source
	// Program, when non-nil, makes the whole-program static passes
	// (internal/static) available to the pipeline. It is required by
	// Interproc and StaticGuardPrune and is computed at most once per
	// Pipeline — the program does not change across traces.
	Program *dvm.Program
	// Interproc matches dereferences through the interprocedural
	// resolution (call-graph def-use chains) instead of the
	// intra-method DerefSources. Requires Program; overrides
	// DerefSources.
	Interproc bool
	// StaticGuardPrune additionally prunes uses whose deref site the
	// static if-guard pass proves covered by a null test. Requires
	// Program.
	StaticGuardPrune bool
	// Evidence attaches a provenance.Collector to each Detect call:
	// Result.Evidence then carries per-race evidence records and
	// per-filtered-candidate prune witnesses. Detection results are
	// identical either way; the switch only buys the bookkeeping.
	Evidence bool
	// EvidenceOptions configures the collector when Evidence is set.
	EvidenceOptions provenance.Options
	// Workers bounds batch-mode concurrency (AnalyzeAll). 0 means
	// GOMAXPROCS. Per-trace concurrency is fixed at the two graph
	// builds and is not affected.
	Workers int
}

// wantStatic reports whether the pipeline needs the static result.
func (o *Options) wantStatic() bool {
	return o.Program != nil && (o.Interproc || o.StaticGuardPrune)
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
	// Static is the whole-program static analysis result when the
	// pipeline computed one (Options.Program with Interproc or
	// StaticGuardPrune). Shared across traces of one Pipeline.
	Static *static.Result
	// Evidence is the provenance collector attached to the detector
	// run, populated when Options.Evidence is set (nil otherwise).
	Evidence *provenance.Collector
	// Stacks are the call stacks at every extracted use deref and
	// free, keyed by trace index: the detect.Extractor captures them
	// as entries pass, in batch and streaming analysis alike.
	Stacks map[int][]trace.MethodID
}

// StackAt returns the call stack at trace index idx from Stacks.
// Report rendering goes through this so batch and streaming runs emit
// identical context lines.
func (r *Result) StackAt(idx int) []trace.MethodID {
	return r.Stacks[idx]
}

// Pipeline is a reusable analyzer. The zero value is ready to use;
// New applies Options.
type Pipeline struct {
	opts Options

	// The static result depends only on the program, so one Pipeline
	// computes it at most once even across AnalyzeAll batches.
	staticOnce sync.Once
	static     *static.Result
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
	a := p.newAnalyzer(tr, sp)
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
	// st is the whole-program static result, resolved before the
	// first entry because Interproc extraction needs st.Derefs.
	st *static.Result

	scanner *hb.Scanner
	locks   *lockset.Tracker
	ext     *detect.Extractor
	n       int // entries consumed
}

// newAnalyzer returns an analyzer over tr, which supplies the task and
// name tables (its Entries may be empty, as for a stream header). The
// static result, when wanted, is resolved under a "static" child of
// sp (nil is fine).
func (p *Pipeline) newAnalyzer(tr *trace.Trace, sp *obs.Span) *analyzer {
	var st *static.Result
	if p.opts.wantStatic() {
		// The static result depends only on the program; sync.Once
		// caches it across traces and makes concurrent first calls
		// safe.
		spS := sp.Child("static")
		p.staticOnce.Do(func() {
			p.static = static.AnalyzeOpts(p.opts.Program, static.Options{})
		})
		spS.End()
		st = p.static
	}
	sources := p.opts.DerefSources
	if st != nil && p.opts.Interproc {
		sources = st.Derefs
	}
	return &analyzer{
		opts:    &p.opts,
		tr:      tr,
		st:      st,
		scanner: hb.NewScanner(tr),
		locks:   lockset.NewTracker(),
		ext:     detect.NewExtractor(sources),
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
	if a.st != nil && opts.StaticGuardPrune {
		in.StaticGuards = a.st.Guards
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
		Static:       a.st,
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

// AnalyzeAll analyzes many traces under a bounded worker pool,
// returning results in input order. The first error encountered is
// returned (after all workers drain); its result slot and any
// unanalyzed slots are nil.
func (p *Pipeline) AnalyzeAll(traces []*trace.Trace) ([]*Result, error) {
	results := make([]*Result, len(traces))
	errs := make([]error, len(traces))
	cBatchTraces.Add(int64(len(traces)))
	ForEach(p.opts.Workers, len(traces), func(i int) {
		sp := obs.Start("pipeline.analyze", obs.Int("idx", i))
		results[i], errs[i] = p.AnalyzeSpanned(traces[i], sp)
		sp.End()
	})
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("analysis: trace %d: %w", i, err)
		}
	}
	return results, nil
}

// Analyze is the one-shot convenience form of Pipeline.Analyze.
func Analyze(tr *trace.Trace, opts Options) (*Result, error) {
	return New(opts).Analyze(tr)
}

// ForEach calls fn(i) for every i in [0, n) from up to `workers`
// concurrent goroutines (0 = GOMAXPROCS) and waits for all calls to
// finish. It is the bounded batch primitive shared by AnalyzeAll, the
// report harness, and the CLIs; fn must handle its own
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
