// Package provenance turns detector decisions into auditable evidence
// — the paper's triage discipline (§7, Fig. 7) as data. For every
// reported race it records an Evidence record: the causality verdict
// (nearest common causal ancestor and the happens-before derivations
// from it to both racy operations), the conventional-model ordering
// verdict, the lock sets at use and free, the inputs to the guard and
// allocation heuristics, and dynamic-instance dedup info. For every
// *filtered* candidate it records a Pruned record carrying the
// stage-specific witness the detector decided on: the HB path that
// ordered the pair, the common lock, the matched guard window, or the
// intra-event allocation entry.
//
// The Collector implements detect.Collector and is strictly passive:
// detection results are identical with or without one attached, and a
// nil collector keeps the detector's candidate loop counter-only (the
// on/off differential and overhead bounds are asserted by tests at
// the repository root).
//
// Exporters render a collected Bundle as a JSON evidence bundle, a
// per-race DOT causality subgraph, or an HTML triage report; Diff
// compares two bundles by race site, the report-regression gate
// behind cafa-analyze -diff.
package provenance

import (
	"cmp"
	"slices"
	"sort"

	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/trace"
)

// DefaultMaxPruned bounds retained Pruned records per trace: the
// prune stream is Candidates-sized in the worst case, while evidence
// is per-race. Per-stage tallies keep counting past the cap, and the
// first witness of each stage is always retained.
const DefaultMaxPruned = 4096

// Options configures a Collector.
type Options struct {
	// MaxPruned caps retained Pruned records (0 = DefaultMaxPruned,
	// negative = unlimited).
	MaxPruned int
}

// Evidence is the per-race provenance record.
type Evidence struct {
	// Race is the reported race (first dynamic instance of its site).
	Race detect.Race
	// Site is the race's dedup key.
	Site detect.SiteKey
	// Ancestor is the trace index of the nearest common causal
	// ancestor of use and free in the event-driven model (-1 when the
	// operations share no causal history). ToUse and ToFree are the
	// happens-before derivations from it to the racy operations — the
	// race's causality subgraph.
	Ancestor      int
	ToUse, ToFree []int
	// Conv is the conventional-model ordering verdict (the reason the
	// baseline detector would hide or also report the race).
	Conv ConvVerdict
	// UseLocks and FreeLocks are the lock sets held at the racy
	// operations (both empty for a reported race unless the lockset
	// filter was disabled).
	UseLocks, FreeLocks []trace.LockID
	// SameLooper records whether both operations ran in events of one
	// looper thread — the gate for the commutativity heuristics.
	SameLooper bool
	// Instances counts dynamic occurrences of the site; First/Last
	// give the trace indexes of the earliest and latest instance pair.
	Instances                 int
	FirstUseIdx, FirstFreeIdx int
	LastUseIdx, LastFreeIdx   int
}

// Pruned is the per-filtered-candidate provenance record.
type Pruned struct {
	Use  detect.Use
	Free detect.Free
	// W is the witness the detector resolved at prune time.
	W detect.PruneWitness
	// Path is the happens-before derivation for ordered prunes, in
	// the witness direction (use ≺ free or free ≺ use).
	Path []int
}

// Site returns the pruned pair's code-site key.
func (p *Pruned) Site() detect.SiteKey {
	return detect.Race{Use: p.Use, Free: p.Free}.Key()
}

// Collector accumulates evidence for one trace. It implements
// detect.Collector; wire it via detect.Input.Collector (the analysis
// pipeline does this when Options.Evidence is set). Not safe for
// concurrent use — one collector per Detect call.
type Collector struct {
	tr    *trace.Trace
	graph *hb.Graph
	conv  *hb.Graph
	locks *lockset.Sets
	opts  Options

	evidence map[detect.SiteKey]*Evidence
	order    []detect.SiteKey
	// underived are the records reported since the last Derive;
	// search is the one graph search every derivation path is read
	// from, made on first use.
	underived []*Evidence
	search    *hb.Search
	pruned    []Pruned
	stageHas  [detect.NumPruneStages]bool
	stages    [detect.NumPruneStages]int
	dropped   int
}

// NewCollector returns a collector for one trace. graph is required;
// conv and locks may be nil (their evidence fields stay empty).
func NewCollector(tr *trace.Trace, graph, conv *hb.Graph, locks *lockset.Sets, opts Options) *Collector {
	if opts.MaxPruned == 0 {
		opts.MaxPruned = DefaultMaxPruned
	}
	return &Collector{
		tr: tr, graph: graph, conv: conv, locks: locks, opts: opts,
		evidence: make(map[detect.SiteKey]*Evidence),
	}
}

// Pruned implements detect.Collector.
func (c *Collector) Pruned(u detect.Use, f detect.Free, w detect.PruneWitness) {
	c.stages[w.Stage]++
	if w.Stage == detect.PruneDedup {
		// A duplicate means the site was already reported: fold the
		// instance into its Evidence record.
		if ev := c.evidence[detect.Race{Use: u, Free: f}.Key()]; ev != nil {
			ev.Instances++
			ev.LastUseIdx, ev.LastFreeIdx = u.ReadIdx, f.Idx
		}
	}
	if c.opts.MaxPruned >= 0 && len(c.pruned) >= c.opts.MaxPruned && c.stageHas[w.Stage] {
		c.dropped++
		return
	}
	c.stageHas[w.Stage] = true
	rec := Pruned{Use: u, Free: f, W: w}
	if w.Stage == detect.PruneOrdered {
		if w.UseBeforeFree {
			rec.Path = c.paths().Explain(u.ReadIdx, f.Idx)
		} else {
			rec.Path = c.paths().Explain(f.Idx, u.ReadIdx)
		}
	}
	c.pruned = append(c.pruned, rec)
}

// Reported implements detect.Collector.
func (c *Collector) Reported(r detect.Race) {
	use, free := r.Use.ReadIdx, r.Free.Idx
	if old := c.evidence[r.Key()]; old != nil {
		// Under KeepDuplicates every dynamic instance is reported;
		// fold repeats into the first instance's record.
		old.Instances++
		old.LastUseIdx, old.LastFreeIdx = use, free
		return
	}
	ev := &Evidence{
		Race: r,
		Site: r.Key(),
		Conv: ExplainConv(c.conv, use, free),
		SameLooper: c.tr.IsEventTask(r.Use.Task) && c.tr.IsEventTask(r.Free.Task) &&
			c.tr.LooperOf(r.Use.Task) == c.tr.LooperOf(r.Free.Task),
		Instances:   1,
		FirstUseIdx: use, FirstFreeIdx: free,
		LastUseIdx: use, LastFreeIdx: free,
	}
	if c.locks != nil {
		ev.UseLocks = append([]trace.LockID(nil), c.locks.At(use)...)
		ev.FreeLocks = append([]trace.LockID(nil), c.locks.At(free)...)
	}
	c.order = append(c.order, ev.Site)
	c.evidence[ev.Site] = ev
	c.underived = append(c.underived, ev)
}

// Derive fills in the causality subgraph — Ancestor, ToUse and ToFree
// — of every record reported since its last call. Races share few
// ancestors and free anchors, so it derives them together: ancestors
// through one candidate list per free anchor, paths through one search
// tree per ancestor, with scratch of one slot per graph node whatever
// the race count. The scratch is released on return. Evidence calls
// it; the analysis pipeline calls it when detection ends, so a
// Result's collector is complete and is only read from then on.
func (c *Collector) Derive() {
	if evs := c.underived; len(evs) > 0 {
		c.underived = nil
		pairs := make([][2]int, len(evs))
		for k, ev := range evs {
			pairs[k] = [2]int{ev.Race.Use.ReadIdx, ev.Race.Free.Idx}
		}
		for k, a := range c.graph.CommonAncestors(pairs) {
			evs[k].Ancestor = a
		}
		slices.SortFunc(evs, func(a, b *Evidence) int { return cmp.Compare(a.Ancestor, b.Ancestor) })
		s := c.paths()
		for _, ev := range evs {
			if ev.Ancestor >= 0 {
				ev.ToUse = s.Explain(ev.Ancestor, ev.Race.Use.ReadIdx)
				ev.ToFree = s.Explain(ev.Ancestor, ev.Race.Free.Idx)
			}
		}
	}
	// A derived collector is only read, so concurrent readers may
	// call Derive: write nothing when there is nothing to release.
	if c.search != nil {
		c.search = nil
	}
}

// paths returns the collector's search over the event-driven graph.
func (c *Collector) paths() *hb.Search {
	if c.search == nil {
		c.search = c.graph.NewSearch()
	}
	return c.search
}

// Evidence returns the per-race records in canonical SiteKey order
// (the order of the detector's report), deriving any still underived.
func (c *Collector) Evidence() []*Evidence {
	c.Derive()
	keys := append([]detect.SiteKey(nil), c.order...)
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	out := make([]*Evidence, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.evidence[k])
	}
	return out
}

// PrunedRecords returns the retained prune witnesses in decision
// order.
func (c *Collector) PrunedRecords() []Pruned { return c.pruned }

// Dropped reports how many prune records the retention cap discarded
// (their stage tallies still counted).
func (c *Collector) Dropped() int { return c.dropped }

// StageCounts returns the number of prunes observed per stage,
// indexed by detect.PruneStage.
func (c *Collector) StageCounts() [detect.NumPruneStages]int { return c.stages }

// Trace returns the collected trace (exporters need its name tables).
func (c *Collector) Trace() *trace.Trace { return c.tr }
