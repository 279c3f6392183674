// Package static is the whole-program static analysis layer over dvm
// bytecode (the paper's §6.3 proposal, generalized): a call graph
// over invoke/return instructions and handler-posting intrinsics, an
// interprocedural extension of the reaching-definitions def-use
// analysis in internal/dataflow (pointer origins flow through
// parameter registers and return values), static versions of the
// detector's two commutativity heuristics (if-guard regions computed
// on the CFG, allocation domination computed by a must-analysis), and
// a trace-free use-after-free pre-pass that enumerates candidate
// site pairs per field and cross-checks them against the dynamic
// detector's report.
//
// Closed-world caveat: the runtime can enter methods outside the
// bytecode (thread bodies and injected events are wired by name), so
// parameters of methods without static callers resolve to Incomplete
// and the detector falls back to its dynamic heuristics there —
// enabling the static layer can refine answers but never invent one
// where the program's entry points are unknown.
package static

import (
	"time"

	"cafa/internal/dataflow"
	"cafa/internal/dvm"
	"cafa/internal/obs"
)

// Static-pass observability (internal/obs): per-pass spans under one
// "static.analyze" span (serial passes — they nest on one track) and
// site counters. The Timing struct feeds the per-app static rows of
// BENCH.json; spans add the same data to the shared trace-event
// timeline.
var (
	cStaticRuns  = obs.NewCounter("static_analyze_runs_total")
	cDerefSites  = obs.NewCounter("static_deref_sites_total")
	cGuardSites  = obs.NewCounter("static_guarded_sites_total")
	cStaticPairs = obs.NewCounter("static_candidate_pairs_total")
)

// Timing records wall-clock per pass for the static layer (the
// static rows of BENCH.json).
type Timing struct {
	CallGraph time.Duration
	Resolve   time.Duration
	Guards    time.Duration
	Alloc     time.Duration
	Pairs     time.Duration
	Order     time.Duration
	Total     time.Duration
}

// Result bundles every static pass over one program.
type Result struct {
	Graph *CallGraph
	// Resolutions is the full interprocedural origin set per
	// dereference site; Derefs is its projection onto the detector's
	// dataflow.Source contract.
	Resolutions map[dataflow.Key]Resolution
	Derefs      map[dataflow.Key]dataflow.Source
	// Guards marks dereference sites covered by a static null test.
	Guards map[dataflow.Key]bool
	// AllocSafe marks dereference sites whose load is dominated by a
	// fresh allocation of its field.
	AllocSafe map[dataflow.Key]bool
	// NonEscaping marks new-sites whose object never leaves the
	// allocating method.
	NonEscaping map[dataflow.Key]bool
	// Pairs is the static use-after-free pre-pass output.
	Pairs []Pair
	// Orders is the static event-order pass output (order.go). Empty
	// unless Options.Roots supplied a closed world of entry points.
	Orders *Orders
	Timing Timing
}

// Analyze runs every static pass over a program with no entry-point
// inventory — the event-order pass stays at its open-world bottom.
func Analyze(p *dvm.Program) *Result { return AnalyzeOpts(p, Options{}) }

// AnalyzeOpts runs every static pass over a program.
func AnalyzeOpts(p *dvm.Program, opts Options) *Result {
	sp := obs.Start("static.analyze")
	defer sp.End()
	res := &Result{}
	start := time.Now()

	pass := func(name string, dst *time.Duration, fn func()) {
		child := sp.Child("static." + name)
		t := time.Now()
		fn()
		*dst = time.Since(t)
		child.End()
	}
	pass("callgraph", &res.Timing.CallGraph, func() { res.Graph = BuildCallGraph(p) })
	pass("interproc", &res.Timing.Resolve, func() { res.Resolutions, res.Derefs = ResolveDerefs(res.Graph) })
	pass("guards", &res.Timing.Guards, func() { res.Guards = Guards(res.Graph) })
	pass("alloc", &res.Timing.Alloc, func() {
		res.AllocSafe = AllocSafe(res.Graph)
		res.NonEscaping = NonEscaping(res.Graph)
	})
	pass("pairs", &res.Timing.Pairs, func() {
		res.Pairs = EnumeratePairs(res.Graph, res.Resolutions, res.Guards, res.AllocSafe)
	})
	pass("order", &res.Timing.Order, func() {
		res.Orders = ComputeOrders(res.Graph, res.Pairs, opts.Roots)
	})

	res.Timing.Total = time.Since(start)
	cStaticRuns.Inc()
	cDerefSites.Add(int64(len(res.Resolutions)))
	guarded := 0
	for _, v := range res.Guards {
		if v {
			guarded++
		}
	}
	cGuardSites.Add(int64(guarded))
	cStaticPairs.Add(int64(len(res.Pairs)))
	return res
}
