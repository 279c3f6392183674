// Package analysis orchestrates CAFA's offline half as a concurrent,
// reusable pipeline. One Analyze call fans the three independent
// trace passes — the event-driven causality graph, the conventional
// baseline graph, and the lockset computation — out to goroutines
// over a shared hb.Prescan, then joins them into the use-free
// detector. A Pipeline additionally analyzes many traces in parallel
// under a bounded worker pool (batch mode).
//
// Results are bit-identical to running the passes serially: the
// passes share no mutable state (the Prescan is immutable, each graph
// owns its adjacency and closure), and the detector runs after the
// join, so concurrency changes only wall-clock time.
package analysis

import (
	"fmt"
	"io"
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
// up as parallel tracks) with a serial prescan child, forked spans
// for the concurrently-built passes, and a serial detect child after
// the join. Counters track batch scheduling.
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
	// Roots is the closed-world entry-point inventory (method →
	// injection/thread-start count) feeding the static event-order
	// pass. Nil leaves the pass at its open-world bottom.
	Roots map[trace.MethodID]int
	// StaticOrderPrune skips the dynamic HB query for candidate pairs
	// the static event-order pass proves must-ordered. Requires
	// Program and Roots; sound only because the prune projection
	// excludes lint-only ordering rules.
	StaticOrderPrune bool
	// Evidence attaches a provenance.Collector to each Detect call:
	// Result.Evidence then carries per-race evidence records and
	// per-filtered-candidate prune witnesses. Detection results are
	// identical either way; the switch only buys the bookkeeping.
	Evidence bool
	// EvidenceOptions configures the collector when Evidence is set.
	EvidenceOptions provenance.Options
	// Workers bounds batch-mode concurrency (AnalyzeAll). 0 means
	// GOMAXPROCS. Per-trace pass concurrency is fixed at the three
	// independent passes and is not affected.
	Workers int
}

// wantStatic reports whether the pipeline needs the static result.
func (o *Options) wantStatic() bool {
	return o.Program != nil && (o.Interproc || o.StaticGuardPrune || o.StaticOrderPrune)
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
	// Stacks are the call stacks at each race's use deref and free,
	// keyed by trace index, filled once per result: batch analysis
	// sweeps the trace once with detect.RaceStacks, and streaming
	// analysis captures them (at every use and free) as entries pass.
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

// Analyze runs the full offline pipeline on one trace. The trace scan
// runs once; the two causality models and the lockset pass then run
// concurrently, and the detector joins them.
func (p *Pipeline) Analyze(tr *trace.Trace) (*Result, error) {
	sp := obs.Start("pipeline.analyze")
	defer sp.End()
	return p.AnalyzeSpanned(tr, sp)
}

// AnalyzeSpanned is Analyze under a caller-owned obs span (nil is
// fine): per-pass sub-spans attach to it and it gains a "races"
// attribute on success, so callers that label per-trace spans (the
// cafa-analyze batch driver, the -progress stream) see the detector
// outcome on the span itself. The caller Ends sp.
func (p *Pipeline) AnalyzeSpanned(tr *trace.Trace, sp *obs.Span) (*Result, error) {
	spScan := sp.Child("hb.prescan")
	ps, err := hb.Scan(tr)
	spScan.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	var (
		wg                   sync.WaitGroup
		g, conv              *hb.Graph
		ls                   *lockset.Sets
		gErr, convErr, lsErr error
		st                   *static.Result
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		spG := sp.Fork("hb.graph")
		defer spG.End()
		g, gErr = hb.BuildFromScan(ps, hb.Options{})
	}()
	go func() {
		defer wg.Done()
		spC := sp.Fork("hb.conventional")
		defer spC.End()
		conv, convErr = hb.BuildFromScan(ps, hb.Options{Conventional: true})
	}()
	go func() {
		defer wg.Done()
		spL := sp.Fork("lockset")
		defer spL.End()
		ls, lsErr = lockset.Compute(tr)
	}()
	if p.opts.wantStatic() {
		// The static passes need only the program, not the trace, so
		// they overlap with the graph builds. sync.Once caches the
		// result across traces (and makes concurrent first calls safe).
		wg.Add(1)
		go func() {
			defer wg.Done()
			spS := sp.Fork("static")
			defer spS.End()
			p.staticOnce.Do(func() {
				p.static = static.AnalyzeOpts(p.opts.Program, static.Options{Roots: p.opts.Roots})
			})
			st = p.static
		}()
	}
	wg.Wait()
	if gErr != nil {
		cTraceErrors.Inc()
		return nil, gErr
	}
	if convErr != nil {
		cTraceErrors.Inc()
		return nil, convErr
	}
	if lsErr != nil {
		cTraceErrors.Inc()
		return nil, lsErr
	}
	in := detect.Input{
		Trace:        tr,
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
		DerefSources: p.opts.DerefSources,
	}
	if st != nil {
		if p.opts.Interproc {
			in.DerefSources = st.Derefs
		}
		if p.opts.StaticGuardPrune {
			in.StaticGuards = st.Guards
		}
		if p.opts.StaticOrderPrune {
			in.StaticOrders = st.Orders.PruneMap()
		}
	}
	var col *provenance.Collector
	if p.opts.Evidence {
		col = provenance.NewCollector(tr, g, conv, ls, p.opts.EvidenceOptions)
		in.Collector = col
	}
	spDet := sp.Child("detect")
	res, err := detect.Detect(in, p.opts.Detect)
	var stacks map[int][]trace.MethodID
	if err == nil {
		stacks = detect.RaceStacks(tr, res.Races)
	}
	spDet.End()
	if err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	out := &Result{
		Trace:        tr,
		Races:        res.Races,
		Stats:        res.Stats,
		GraphStats:   g.Stats(),
		ConvStats:    conv.Stats(),
		Graph:        g,
		Conventional: conv,
		Locks:        ls,
		Static:       st,
		Evidence:     col,
		Stacks:       stacks,
	}
	if p.opts.Naive {
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

// Source is one input to AnalyzeSources: a materialized trace (batch
// mode) or a reader whose entries are streamed (Reader non-nil wins).
type Source struct {
	Trace  *trace.Trace
	Reader io.Reader
}

// AnalyzeSources analyzes a mixed batch of materialized and streamed
// inputs under the same bounded worker pool as AnalyzeAll, returning
// results in input order. Batch and streamed inputs produce identical
// results for identical traces; the mode only changes peak memory.
func (p *Pipeline) AnalyzeSources(srcs []Source) ([]*Result, error) {
	results := make([]*Result, len(srcs))
	errs := make([]error, len(srcs))
	cBatchTraces.Add(int64(len(srcs)))
	ForEach(p.opts.Workers, len(srcs), func(i int) {
		if srcs[i].Reader != nil {
			sp := obs.Start("pipeline.analyze.stream", obs.Int("idx", i))
			results[i], errs[i] = p.AnalyzeStreamSpanned(srcs[i].Reader, sp)
			sp.End()
			return
		}
		sp := obs.Start("pipeline.analyze", obs.Int("idx", i))
		results[i], errs[i] = p.AnalyzeSpanned(srcs[i].Trace, sp)
		sp.End()
	})
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("analysis: trace %d: %w", i, err)
		}
	}
	return results, nil
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
