package detect

import (
	"fmt"
	"sort"

	"cafa/internal/dataflow"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Detector observability (internal/obs): the pipeline-stage tallies
// as live process-wide counters, so a long batch run's progress is
// visible (via -debug-addr /metrics or the -metrics table) while it
// runs — end-of-run Stats structs only aggregate after the fact.
var (
	cCandidates    = obs.NewCounter("detect_candidates_total")
	cFilteredOrder = obs.NewCounter("detect_filtered_ordered_total")
	cFilteredLocks = obs.NewCounter("detect_filtered_lockset_total")
	cFilteredAlloc = obs.NewCounter("detect_filtered_intra_alloc_total")
	cFilteredGuard = obs.NewCounter("detect_filtered_ifguard_total")
	cDuplicates    = obs.NewCounter("detect_duplicates_total")
	cRacesReported = obs.NewCounter("detect_races_reported_total")
)

// Class categorizes a reported race per Table 1.
type Class uint8

// Race classes.
const (
	// ClassIntraThread: both racy operations run in events of the same
	// looper thread (column a).
	ClassIntraThread Class = iota
	// ClassInterThread: cross-thread race a conventional detector
	// misses because it totally orders looper events (column b).
	ClassInterThread
	// ClassConventional: cross-thread race a conventional detector
	// also finds (column c).
	ClassConventional
)

func (c Class) String() string {
	switch c {
	case ClassIntraThread:
		return "intra-thread"
	case ClassInterThread:
		return "inter-thread"
	case ClassConventional:
		return "conventional"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Race is a reported use-free race.
type Race struct {
	Use   Use
	Free  Free
	Class Class
}

// SiteKey identifies the static code-site pair of a race; reports are
// deduplicated on it so repeated dynamic instances of one buggy pair
// count once.
type SiteKey struct {
	Field      trace.FieldID
	UseMethod  trace.MethodID
	UsePC      trace.PC
	FreeMethod trace.MethodID
	FreePC     trace.PC
}

// Less orders SiteKeys lexicographically by (Field, UseMethod, UsePC,
// FreeMethod, FreePC) — the canonical report order.
func (k SiteKey) Less(o SiteKey) bool {
	switch {
	case k.Field != o.Field:
		return k.Field < o.Field
	case k.UseMethod != o.UseMethod:
		return k.UseMethod < o.UseMethod
	case k.UsePC != o.UsePC:
		return k.UsePC < o.UsePC
	case k.FreeMethod != o.FreeMethod:
		return k.FreeMethod < o.FreeMethod
	default:
		return k.FreePC < o.FreePC
	}
}

// Key returns the race's deduplication key.
func (r Race) Key() SiteKey {
	return SiteKey{
		Field:      r.Use.Var.Field(),
		UseMethod:  r.Use.Method,
		UsePC:      r.Use.DerefPC,
		FreeMethod: r.Free.Method,
		FreePC:     r.Free.PC,
	}
}

// Describe renders a human-readable report line.
func (r Race) Describe(tr *trace.Trace) string {
	return fmt.Sprintf("%s race on %s: use in %s (%s pc=%d) vs free in %s (%s pc=%d)",
		r.Class, tr.VarName(r.Use.Var),
		tr.TaskName(r.Use.Task), tr.MethodName(r.Use.Method), r.Use.DerefPC,
		tr.TaskName(r.Free.Task), tr.MethodName(r.Free.Method), r.Free.PC)
}

// PruneStage identifies the detector pipeline stage that eliminated a
// candidate pair.
type PruneStage uint8

// Prune stages, in the order the detector applies them.
const (
	PruneOrdered PruneStage = iota
	PruneLockset
	PruneIntraAlloc
	PruneIfGuard
	PruneDedup
	numPruneStages
)

// NumPruneStages is the number of prune stages (for per-stage tallies).
const NumPruneStages = int(numPruneStages)

func (s PruneStage) String() string {
	switch s {
	case PruneOrdered:
		return "ordered"
	case PruneLockset:
		return "lockset"
	case PruneIntraAlloc:
		return "intra-alloc"
	case PruneIfGuard:
		return "if-guard"
	case PruneDedup:
		return "dedup"
	default:
		return fmt.Sprintf("PruneStage(%d)", uint8(s))
	}
}

// PruneWitness carries the stage-specific fact that justified a prune,
// resolved at the moment the detector decided. Only the fields of the
// witnessing stage are meaningful.
type PruneWitness struct {
	Stage PruneStage
	// UseBeforeFree is the happens-before direction (PruneOrdered).
	UseBeforeFree bool
	// CommonLocks is the lockset intersection (PruneLockset).
	CommonLocks []trace.LockID
	// AllocIdx is the trace index of the intra-event allocation that
	// re-establishes the pointer (PruneIntraAlloc).
	AllocIdx int
	// GuardIdx is the trace index of the matched branch and
	// [GuardLo, GuardHi) its safe region (PruneIfGuard).
	GuardIdx         int
	GuardLo, GuardHi trace.PC
	// Class is the classification the duplicate pair had already
	// received (PruneDedup); the kept instance shares its SiteKey.
	Class Class
}

// Collector observes detector decisions for provenance. Detect calls
// it synchronously from the candidate loop, so implementations must be
// cheap; a nil collector keeps the hot loop counter-only. Collectors
// never influence detection — results are identical with or without
// one.
type Collector interface {
	// Pruned is called once per filtered candidate pair.
	Pruned(u Use, f Free, w PruneWitness)
	// Reported is called once per reported race, in detection order
	// (the result slice is later sorted by SiteKey).
	Reported(r Race)
}

// Options toggles the detector's pruning stages — the ablation knobs
// of the evaluation.
type Options struct {
	// DisableIfGuard turns off the if-guard heuristic.
	DisableIfGuard bool
	// DisableIntraEventAlloc turns off intra-event-allocation.
	DisableIntraEventAlloc bool
	// DisableLockset turns off the mutual-exclusion filter.
	DisableLockset bool
	// KeepDuplicates reports every dynamic instance instead of
	// deduplicating by code site.
	KeepDuplicates bool
}

// Stats counts the detector's pipeline stages.
type Stats struct {
	Uses, Frees, Allocs int
	Candidates          int // concurrent same-location use/free pairs considered
	FilteredOrdered     int // pairs ordered by the causality model
	FilteredLockset     int
	FilteredIfGuard     int
	FilteredIntraAlloc  int
	Duplicates          int
}

// Add folds other into s field by field. It is the one aggregation
// point for multi-trace reports (CLI aggregate section, live triage,
// evidence bundles, the service), so new Stats fields only need to be
// wired here.
func (s *Stats) Add(other Stats) {
	s.Uses += other.Uses
	s.Frees += other.Frees
	s.Allocs += other.Allocs
	s.Candidates += other.Candidates
	s.FilteredOrdered += other.FilteredOrdered
	s.FilteredLockset += other.FilteredLockset
	s.FilteredIfGuard += other.FilteredIfGuard
	s.FilteredIntraAlloc += other.FilteredIntraAlloc
	s.Duplicates += other.Duplicates
}

// Result is the detector output.
type Result struct {
	Races []Race
	Stats Stats
}

// Input wires the detector's dependencies.
type Input struct {
	Trace *trace.Trace
	// Graph is the event-driven causality model (hb.Options{}).
	Graph *hb.Graph
	// Conventional, when non-nil, is the baseline model used to split
	// inter-thread races into classes (b) and (c). Without it every
	// cross-thread race is ClassInterThread.
	Conventional *hb.Graph
	// Locks are the per-operation held-lock sets.
	Locks *lockset.Sets
	// DerefSources, when non-nil, enables the static data-flow
	// extension (§6.3): dereference instructions are matched to the
	// exact pointer-load site computed by
	// dataflow.DerefSources(program), eliminating Type III false
	// positives. It requires the application's bytecode and is
	// therefore optional.
	DerefSources map[dataflow.Key]dataflow.Source
	// Collector, when non-nil, receives per-decision provenance
	// callbacks (internal/provenance implements it). Nil keeps the
	// candidate loop counter-only.
	Collector Collector
}

// Detect runs the use-free race detector (§4.2, §4.3). The trace need
// not have been validated, but every task an entry names must be
// declared: Detect fails on the first that is not.
func Detect(in Input, opts Options) (*Result, error) {
	if in.Trace == nil || in.Graph == nil {
		return nil, fmt.Errorf("detect: trace and graph are required")
	}
	tr := in.Trace
	x := NewExtractor(tr, in.DerefSources)
	err := tr.Sweep(func(i int, e *trace.Entry, s int32) error { x.Consume(i, e, s); return nil })
	if err != nil {
		return nil, err
	}
	return DetectExtracted(in, x, opts)
}

// looperSlot returns the slot of the looper that ran event t, or -1
// when t is not an event or its looper is not declared.
func looperSlot(tr *trace.Trace, t trace.TaskID) int32 {
	if s := tr.Slot(t); s >= 0 && tr.Tasks[s].Kind == trace.KindEvent {
		return tr.Slot(tr.Tasks[s].Looper)
	}
	return -1
}

// DetectExtracted runs the detector over a finished extraction — the
// streaming entry point, where the Extractor consumed the entries as
// they arrived and in.Trace may be a header-only trace (task tables
// but no Entries). Results are identical to Detect on the
// materialized trace.
func DetectExtracted(in Input, x *Extractor, opts Options) (*Result, error) {
	if in.Trace == nil || in.Graph == nil {
		return nil, fmt.Errorf("detect: trace and graph are required")
	}
	ex := x.ex
	res := &Result{}
	res.Stats.Uses = len(ex.uses)
	res.Stats.Frees = len(ex.frees)
	res.Stats.Allocs = len(ex.allocs)

	freesByVar := make(map[trace.VarID][]Free)
	for _, f := range ex.frees {
		freesByVar[f.Var] = append(freesByVar[f.Var], f)
	}

	if in.Conventional != nil {
		in.Conventional.Project(crossTaskPoints(ex.uses, freesByVar))
	}

	col := in.Collector
	seen := make(map[SiteKey]bool)
	for _, u := range ex.uses {
		for _, f := range freesByVar[u.Var] {
			if u.Task == f.Task {
				continue // program order within one task
			}
			res.Stats.Candidates++
			if !in.Graph.ConcurrentAt(u.ReadIdx, u.Task, f.Idx, f.Task) {
				res.Stats.FilteredOrdered++
				if col != nil {
					col.Pruned(u, f, PruneWitness{
						Stage:         PruneOrdered,
						UseBeforeFree: in.Graph.OrderedAt(u.ReadIdx, u.Task, f.Idx, f.Task),
					})
				}
				continue
			}
			if !opts.DisableLockset && in.Locks != nil && in.Locks.Intersects(u.ReadIdx, f.Idx) {
				res.Stats.FilteredLockset++
				if col != nil {
					col.Pruned(u, f, PruneWitness{
						Stage:       PruneLockset,
						CommonLocks: in.Locks.Common(u.ReadIdx, f.Idx),
					})
				}
				continue
			}
			// The commutativity heuristics only apply when both events
			// run on the same looper thread (§4.3): there, looper
			// atomicity makes whole-event reasoning sound enough.
			lu := looperSlot(ex.tr, u.Task)
			sameLooper := lu >= 0 && lu == looperSlot(ex.tr, f.Task)
			if sameLooper {
				if !opts.DisableIntraEventAlloc {
					// The free side's witness (an alloc after the free)
					// takes precedence, matching the historical
					// short-circuit evaluation order.
					ai := ex.allocAfterIdx(f.Task, f.Var, f.Idx)
					if ai < 0 {
						ai = ex.allocBeforeIdx(u.Task, u.Var, u.ReadIdx)
					}
					if ai >= 0 {
						res.Stats.FilteredIntraAlloc++
						if col != nil {
							col.Pruned(u, f, PruneWitness{Stage: PruneIntraAlloc, AllocIdx: ai})
						}
						continue
					}
				}
				if !opts.DisableIfGuard {
					if g, ok := ex.guardWitness(u); ok {
						res.Stats.FilteredIfGuard++
						if col != nil {
							lo, hi := GuardRegion(g.kind, g.pc, g.target)
							col.Pruned(u, f, PruneWitness{
								Stage: PruneIfGuard, GuardIdx: g.idx, GuardLo: lo, GuardHi: hi,
							})
						}
						continue
					}
				}
			}
			r := Race{Use: u, Free: f}
			if sameLooper {
				r.Class = ClassIntraThread
			} else if in.Conventional != nil && in.Conventional.ConcurrentAt(u.ReadIdx, u.Task, f.Idx, f.Task) {
				r.Class = ClassConventional
			} else {
				r.Class = ClassInterThread
			}
			if !opts.KeepDuplicates {
				k := r.Key()
				if seen[k] {
					res.Stats.Duplicates++
					if col != nil {
						col.Pruned(u, f, PruneWitness{Stage: PruneDedup, Class: r.Class})
					}
					continue
				}
				seen[k] = true
			}
			res.Races = append(res.Races, r)
			if col != nil {
				col.Reported(r)
			}
		}
	}
	// Canonical report order: stable sort by SiteKey, so output never
	// depends on extraction order and concurrent analysis can never
	// reorder it. The stable tie-break keeps dynamic instances (under
	// KeepDuplicates) in trace order.
	sort.SliceStable(res.Races, func(i, j int) bool {
		return res.Races[i].Key().Less(res.Races[j].Key())
	})
	// Metrics are batched per Detect call: per-candidate atomic
	// increments in the loop above cost measurable wall-clock on large
	// traces, and the Stats struct already tallies every stage.
	cCandidates.Add(int64(res.Stats.Candidates))
	cFilteredOrder.Add(int64(res.Stats.FilteredOrdered))
	cFilteredLocks.Add(int64(res.Stats.FilteredLockset))
	cFilteredAlloc.Add(int64(res.Stats.FilteredIntraAlloc))
	cFilteredGuard.Add(int64(res.Stats.FilteredIfGuard))
	cDuplicates.Add(int64(res.Stats.Duplicates))
	cRacesReported.Add(int64(len(res.Races)))
	return res, nil
}

// crossTaskPoints lists the use and free entries of every cross-task
// candidate, each once: the only entries the conventional model's
// queries name, whether classifying a race or explaining it.
func crossTaskPoints(uses []Use, freesByVar map[trace.VarID][]Free) []hb.Point {
	var pts []hb.Point
	freeSeen := make(map[int]bool)
	for _, u := range uses {
		useSeen := false
		for _, f := range freesByVar[u.Var] {
			if u.Task == f.Task {
				continue
			}
			if !useSeen {
				useSeen = true
				pts = append(pts, hb.Point{Idx: u.ReadIdx, Task: u.Task})
			}
			if !freeSeen[f.Idx] {
				freeSeen[f.Idx] = true
				pts = append(pts, hb.Point{Idx: f.Idx, Task: f.Task})
			}
		}
	}
	return pts
}

// CountByClass tallies races per class.
func (r *Result) CountByClass() (intra, inter, conv int) {
	for _, rc := range r.Races {
		switch rc.Class {
		case ClassIntraThread:
			intra++
		case ClassInterThread:
			inter++
		case ClassConventional:
			conv++
		}
	}
	return
}
