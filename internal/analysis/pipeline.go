// Package analysis orchestrates CAFA's offline half as one forward
// sweep per trace. Every pass is a per-entry consumer — the
// structural trace.Validator, hb.Scanner, lockset.Tracker and
// detect.Extractor — and Ingest (stream.go) feeds each entry of a
// Source through all of them in trace order, so the first fault in
// trace order is the one reported. A Source is a stream decoder over
// trace bytes (AnalyzeStream: cafa-analyze, cafa-lint -trace;
// cafa-serve calls Ingest itself) or a trace already in memory
// (Analyze: simulator output, the cafa façade); either way the trace
// is validated. The finish step then builds the event-driven
// causality model (a fixpoint over adaptive closure rows) and the
// conventional one (its adjacency alone) in sequence over the scanned
// frontier, and runs the use-free detector, which projects the
// conventional closure onto the candidates it classifies. One
// Pipeline may analyze many traces concurrently; ForEach is the
// bounded pool the front ends drive it with.
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
// up as parallel tracks) with a serial "stream.ingest" child (the
// per-entry sweep), a serial prescan child (base edges and anchor
// index), one serial child per causality model ("hb.graph",
// "hb.conventional"), and a serial detect child. Counters track
// traces analyzed and failed.
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

// Pipeline is a reusable analysis configuration. The zero value is
// ready to use; New applies Options. A Pipeline holds no per-trace
// state, so one may analyze many traces concurrently.
type Pipeline struct {
	opts Options
}

// New returns a Pipeline with the given options.
func New(opts Options) *Pipeline {
	return &Pipeline{opts: opts}
}

// Analyze runs the full offline pipeline on a trace already in
// memory: one sweep validates every entry and feeds it to the
// per-entry passes, then the two causality models are built and the
// detector runs over them. An invalid trace returns its first
// structural fault.
func (p *Pipeline) Analyze(tr *trace.Trace) (*Result, error) {
	sp := obs.Start("pipeline.analyze")
	defer sp.End()
	return p.analyze(&entries{tr: tr}, sp)
}

// analyze is Ingest over src followed by the finish step.
func (p *Pipeline) analyze(src Source, sp *obs.Span) (*Result, error) {
	a, err := p.Ingest(src, sp)
	if err != nil {
		return nil, err
	}
	return a.Finish(sp)
}

// Analyzer is one trace's analysis between Ingest and Finish: the
// structural validator and the per-entry passes, advanced together by
// consume, and the finish step that joins them into a Result. Every
// pass keeps its per-task state by the slots of one task table, built
// from the header when Ingest starts.
type Analyzer struct {
	opts *Options
	tr   *trace.Trace

	val     *trace.Validator
	scanner *hb.Scanner
	locks   *lockset.Tracker
	ext     *detect.Extractor
	n       int // entries consumed
}

// consume validates one entry and advances every pass by it, handing
// each the slot of the entry's task the validator resolved. Entries
// must arrive in trace order, so the first fault in trace order is the
// one reported; *e is not retained.
func (a *Analyzer) consume(e *trace.Entry) error {
	slot, err := a.val.Entry(e)
	if err != nil {
		return err
	}
	if err := a.scanner.Consume(e, slot); err != nil {
		return err
	}
	if err := a.locks.Consume(a.n, e, slot); err != nil {
		return err
	}
	a.ext.Consume(a.n, e, slot)
	a.n++
	if a.n%windowSampleEvery == 0 {
		gStreamWindow.Set(int64(a.ext.Live()))
	}
	return nil
}

// Finish seals the scan, builds both causality models, and runs the
// detector over the extraction, under a caller-owned span (nil is
// fine): per-pass sub-spans attach to it, and it gains a "races"
// attribute on success, so callers that label per-trace spans see the
// detector outcome on the span itself. The caller Ends sp.
func (a *Analyzer) Finish(sp *obs.Span) (*Result, error) {
	gStreamWindow.Set(int64(a.ext.Live()))
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
		col = provenance.NewCollector(a.tr, g, conv, ls, provenance.Options{})
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
	cEntries.Add(int64(a.n))
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
