package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cafa/internal/detect"
	"cafa/internal/jsonindent"
	"cafa/internal/trace"
)

// BundleVersion is the evidence-bundle schema version.
const BundleVersion = 1

// PathCap bounds exported derivation paths: long fixpoint chains
// (hundreds of queue-rule hops) are elided after this many entries
// and flagged truncated, keeping bundles reviewable and diffable.
const PathCap = 12

// Bundle is the JSON evidence bundle: one entry per analyzed input
// plus aggregate detector stats. Race sites are rendered as stable
// human-readable strings, so bundles recorded from different file
// paths (or machines) diff cleanly by site.
type Bundle struct {
	Version int             `json:"version"`
	Inputs  []InputEvidence `json:"inputs"`
	Stats   detect.Stats    `json:"stats"`
}

// InputEvidence is the evidence for one analyzed trace.
type InputEvidence struct {
	File          string         `json:"file"`
	Events        int            `json:"events"`
	Entries       int            `json:"entries"`
	Stats         detect.Stats   `json:"stats"`
	Races         []RaceEvidence `json:"races"`
	Pruned        []PruneRecord  `json:"pruned"`
	PrunedDropped int            `json:"prunedDropped,omitempty"`
	// Gaps lists static coverage gaps from the lint cross-check:
	// statically-possible pairs the dynamic run never reported
	// (attached by cafa-lint; absent from pure trace analyses).
	Gaps []GapRecord `json:"gaps,omitempty"`
}

// GapRecord is one static coverage gap: an unguarded
// statically-possible pair absent from the dynamic report. Ordered
// gaps carry the event-order witness proving them topology-safe;
// unordered gaps are the true coverage holes triage should read
// first.
type GapRecord struct {
	Site          string   `json:"site"`
	Ordered       bool     `json:"ordered,omitempty"`
	UseBeforeFree bool     `json:"useBeforeFree,omitempty"`
	Witness       []string `json:"witness,omitempty"`
}

// SortGaps ranks gaps for triage: true coverage holes (no static
// order) first, topology-safe ordered gaps last, site order within
// each group.
func SortGaps(gaps []GapRecord) {
	sort.SliceStable(gaps, func(i, j int) bool {
		if gaps[i].Ordered != gaps[j].Ordered {
			return !gaps[i].Ordered
		}
		return gaps[i].Site < gaps[j].Site
	})
}

// EntryRef names one trace entry in exported form.
type EntryRef struct {
	Idx   int    `json:"idx"`
	Entry string `json:"entry"`
	Task  string `json:"task"`
}

// RaceEvidence is the exported per-race record.
type RaceEvidence struct {
	Site       string `json:"site"`
	Class      string `json:"class"`
	Field      string `json:"field"`
	Var        string `json:"var"`
	UseTask    string `json:"useTask"`
	UseMethod  string `json:"useMethod"`
	UsePC      uint32 `json:"usePC"`
	UseIdx     int    `json:"useIdx"`
	FreeTask   string `json:"freeTask"`
	FreeMethod string `json:"freeMethod"`
	FreePC     uint32 `json:"freePC"`
	FreeIdx    int    `json:"freeIdx"`
	SameLooper bool   `json:"sameLooper"`

	// Causality: the nearest common causal ancestor and the
	// derivations from it to both racy operations (the DOT subgraph's
	// skeleton). Ancestor is nil when the operations share no causal
	// history.
	Ancestor       *EntryRef  `json:"ancestor,omitempty"`
	AncestorToUse  []EntryRef `json:"ancestorToUse,omitempty"`
	AncestorToFree []EntryRef `json:"ancestorToFree,omitempty"`

	// Conventional-model verdict: why the thread-based baseline hides
	// the race (ordered) or also reports it (unordered).
	ConvDirection string     `json:"convDirection"`
	ConvPath      []EntryRef `json:"convPath,omitempty"`

	PathsTruncated bool `json:"pathsTruncated,omitempty"`

	UseLocks  []string `json:"useLocks,omitempty"`
	FreeLocks []string `json:"freeLocks,omitempty"`

	// Dedup info: dynamic instances of the site and the first/last
	// occurrence pair.
	Instances    int `json:"instances"`
	FirstUseIdx  int `json:"firstUseIdx"`
	FirstFreeIdx int `json:"firstFreeIdx"`
	LastUseIdx   int `json:"lastUseIdx"`
	LastFreeIdx  int `json:"lastFreeIdx"`

	// Confirmed records a successful §6.2-style adversarial replay of
	// this race (attached by the service's confirm step or any other
	// internal/replay driver). Absent until a confirmation ran and
	// reproduced the crash, so bundles diff cleanly before and after.
	Confirmed *ConfirmationRecord `json:"confirmed,omitempty"`
}

// ConfirmationRecord is the exported form of a replay.Confirmation:
// the schedule that reproduced the crash and the crash itself.
type ConfirmationRecord struct {
	Seed    uint64 `json:"seed"`
	DelayMs int64  `json:"delayMs"`
	Crash   string `json:"crash"`
}

// GuardRef is the exported if-guard witness: the matched branch entry
// and its Figure 6 safe region.
type GuardRef struct {
	EntryRef
	RegionLo uint32 `json:"regionLo"`
	RegionHi uint32 `json:"regionHi"`
}

// PruneRecord is the exported per-filtered-candidate witness.
type PruneRecord struct {
	Stage   string `json:"stage"`
	Site    string `json:"site"`
	UseIdx  int    `json:"useIdx"`
	FreeIdx int    `json:"freeIdx"`

	// Stage-specific witness (exactly one group is populated).
	Direction   string     `json:"direction,omitempty"`   // ordered
	Path        []EntryRef `json:"path,omitempty"`        // ordered
	CommonLocks []string   `json:"commonLocks,omitempty"` // lockset
	Alloc       *EntryRef  `json:"alloc,omitempty"`       // intra-alloc
	Guard       *GuardRef  `json:"guard,omitempty"`       // if-guard
	Class       string     `json:"class,omitempty"`       // dedup

	PathTruncated bool `json:"pathTruncated,omitempty"`
}

// SiteString renders a SiteKey as the stable diff key:
// "field: use method@pc free method@pc".
func SiteString(tr *trace.Trace, k detect.SiteKey) string {
	return fmt.Sprintf("%s: use %s@%d free %s@%d",
		tr.FieldName(k.Field),
		tr.MethodName(k.UseMethod), k.UsePC,
		tr.MethodName(k.FreeMethod), k.FreePC)
}

// entryRefs renders trace entries for one Bundle call, each entry at
// most once: derivation paths name the same few entries over and over
// (on a dense synthetic trace, 15,839 path steps name 65 distinct
// entries), and Entry.String formats through fmt.
type entryRefs struct {
	tr   *trace.Trace
	memo map[int]EntryRef
}

// ref renders one trace entry.
func (r *entryRefs) ref(idx int) EntryRef {
	if ref, ok := r.memo[idx]; ok {
		return ref
	}
	e := &r.tr.Entries[idx]
	ref := EntryRef{Idx: idx, Entry: e.String(), Task: r.tr.TaskName(e.Task)}
	r.memo[idx] = ref
	return ref
}

// path renders a derivation, capped at PathCap entries; the second
// result reports whether the path was truncated.
func (r *entryRefs) path(path []int) ([]EntryRef, bool) {
	if path == nil {
		return nil, false
	}
	truncated := false
	if len(path) > PathCap {
		path = path[:PathCap]
		truncated = true
	}
	out := make([]EntryRef, len(path))
	for i, idx := range path {
		out[i] = r.ref(idx)
	}
	return out, truncated
}

func lockNames(locks []trace.LockID) []string {
	if len(locks) == 0 {
		return nil
	}
	out := make([]string, len(locks))
	for i, l := range locks {
		out[i] = fmt.Sprintf("l%d", l)
	}
	return out
}

// Bundle renders the collector's records as the exported evidence for
// one input. It is safe to call repeatedly (the live triage view and
// the final export share one collector): past the derivation Evidence
// completes on first read, it only renders.
func (c *Collector) Bundle(file string) InputEvidence {
	in := InputEvidence{
		File:    file,
		Events:  c.tr.EventCount(),
		Entries: c.tr.Len(),
		Races:   []RaceEvidence{},
		Pruned:  []PruneRecord{},
	}
	refs := &entryRefs{tr: c.tr, memo: map[int]EntryRef{}}
	for _, ev := range c.Evidence() {
		r := ev.Race
		re := RaceEvidence{
			Site:       SiteString(c.tr, ev.Site),
			Class:      r.Class.String(),
			Field:      c.tr.FieldName(r.Use.Var.Field()),
			Var:        c.tr.VarName(r.Use.Var),
			UseTask:    c.tr.TaskName(r.Use.Task),
			UseMethod:  c.tr.MethodName(r.Use.Method),
			UsePC:      uint32(r.Use.DerefPC),
			UseIdx:     r.Use.ReadIdx,
			FreeTask:   c.tr.TaskName(r.Free.Task),
			FreeMethod: c.tr.MethodName(r.Free.Method),
			FreePC:     uint32(r.Free.PC),
			FreeIdx:    r.Free.Idx,
			SameLooper: ev.SameLooper,

			ConvDirection: ev.Conv.Direction.String(),

			UseLocks:  lockNames(ev.UseLocks),
			FreeLocks: lockNames(ev.FreeLocks),

			Instances:    ev.Instances,
			FirstUseIdx:  ev.FirstUseIdx,
			FirstFreeIdx: ev.FirstFreeIdx,
			LastUseIdx:   ev.LastUseIdx,
			LastFreeIdx:  ev.LastFreeIdx,
		}
		if ev.Ancestor >= 0 {
			ref := refs.ref(ev.Ancestor)
			re.Ancestor = &ref
			var t1, t2 bool
			re.AncestorToUse, t1 = refs.path(ev.ToUse)
			re.AncestorToFree, t2 = refs.path(ev.ToFree)
			re.PathsTruncated = t1 || t2
		}
		var tc bool
		re.ConvPath, tc = refs.path(ev.Conv.Path)
		re.PathsTruncated = re.PathsTruncated || tc
		in.Races = append(in.Races, re)
	}
	for i := range c.pruned {
		p := &c.pruned[i]
		pr := PruneRecord{
			Stage:   p.W.Stage.String(),
			Site:    SiteString(c.tr, p.Site()),
			UseIdx:  p.Use.ReadIdx,
			FreeIdx: p.Free.Idx,
		}
		switch p.W.Stage {
		case detect.PruneOrdered:
			if p.W.UseBeforeFree {
				pr.Direction = DirUseBeforeFree.String()
			} else {
				pr.Direction = DirFreeBeforeUse.String()
			}
			pr.Path, pr.PathTruncated = refs.path(p.Path)
		case detect.PruneLockset:
			pr.CommonLocks = lockNames(p.W.CommonLocks)
		case detect.PruneIntraAlloc:
			ref := refs.ref(p.W.AllocIdx)
			pr.Alloc = &ref
		case detect.PruneIfGuard:
			pr.Guard = &GuardRef{
				EntryRef: refs.ref(p.W.GuardIdx),
				RegionLo: uint32(p.W.GuardLo),
				RegionHi: uint32(p.W.GuardHi),
			}
		case detect.PruneDedup:
			pr.Class = p.W.Class.String()
		}
		in.Pruned = append(in.Pruned, pr)
	}
	in.PrunedDropped = c.dropped
	return in
}

// WriteJSON encodes the bundle as indented JSON (two spaces, trailing
// newline) in a single Write.
func (b *Bundle) WriteJSON(w io.Writer) error {
	return jsonindent.Encode(w, b)
}

// ReadBundle decodes a JSON evidence bundle.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("evidence bundle: %w", err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("evidence bundle: unsupported version %d (want %d)", b.Version, BundleVersion)
	}
	return &b, nil
}
