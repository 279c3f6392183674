package static

import (
	"sort"

	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/trace"
)

// Pair is one statically-possible use-after-free candidate: a
// dereference whose pointer may come from a load of field Field, and
// a store of null to the same field. Its Key matches the dynamic
// detector's SiteKey exactly, so the two worlds cross-check by map
// lookup.
type Pair struct {
	Key detect.SiteKey
	// Load is the pointer-load site feeding the dereference.
	Load LoadSite
	// Guarded: the dereference is covered by a static null-test
	// (Guards pass) — a dynamic race here would be pruned as benign.
	Guarded bool
	// AllocSafe: the load is dominated by a fresh store of its field
	// (AllocSafe pass) — the use can never see a freed pointer.
	AllocSafe bool
}

// FreeSite is a static null store to a field.
type FreeSite struct {
	Method trace.MethodID
	PC     trace.PC
	Field  trace.FieldID
}

// FreeSites scans every method for stores whose value chases to a
// null constant — the static counterpart of the tracer's
// OpPtrWrite(null) free events.
func FreeSites(cg *CallGraph) []FreeSite {
	var out []FreeSite
	for _, m := range cg.Prog.Methods {
		r := cg.Reach[m.ID]
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Code != dvm.CIput && in.Code != dvm.CSput {
				continue
			}
			if !r.Reachable(pc) {
				continue
			}
			origin, ok := chaseUnique(m, r, pc, in.A)
			if ok && origin >= 0 && m.Code[origin].Code == dvm.CConstNull {
				out = append(out, FreeSite{Method: m.ID, PC: trace.PC(pc), Field: in.Field})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.PC < b.PC
	})
	return out
}

// EnumeratePairs crosses every dereference-of-field-load with every
// null store to the same field. Array loads (Field 0) are excluded:
// array slots have no static identity. Incomplete resolutions still
// contribute their known sites — the pre-pass wants coverage, and a
// partially-resolved deref may genuinely read the field.
func EnumeratePairs(cg *CallGraph, resolutions map[dataflow.Key]Resolution,
	guards, allocSafe map[dataflow.Key]bool) []Pair {

	frees := FreeSites(cg)
	freesByField := make(map[trace.FieldID][]FreeSite)
	for _, f := range frees {
		freesByField[f.Field] = append(freesByField[f.Field], f)
	}

	var pairs []Pair
	for deref, res := range resolutions {
		for _, site := range res.Sites {
			if site.Field == 0 {
				continue
			}
			for _, free := range freesByField[site.Field] {
				pairs = append(pairs, Pair{
					Key: detect.SiteKey{
						Field:      site.Field,
						UseMethod:  deref.Method,
						UsePC:      deref.PC,
						FreeMethod: free.Method,
						FreePC:     free.PC,
					},
					Load:      site,
					Guarded:   guards[deref],
					AllocSafe: allocSafe[deref],
				})
			}
		}
	}
	// Full tiebreak: distinct load sites can produce the same Key (two
	// loads of one field feeding one deref), and a Key-only comparison
	// under a non-stable sort left their order to map iteration. The
	// Load fields break the tie so output is deterministic.
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.Key != b.Key {
			return a.Key.Less(b.Key)
		}
		if a.Load.Method != b.Load.Method {
			return a.Load.Method < b.Load.Method
		}
		if a.Load.PC != b.Load.PC {
			return a.Load.PC < b.Load.PC
		}
		return a.Load.Field < b.Load.Field
	})
	return pairs
}

// Verdict is the cross-check classification of a dynamic race against
// the static pairs.
type Verdict uint8

// Verdicts, in annotation precedence order.
const (
	// VerdictStaticallyGuarded: the race's dereference is covered by a
	// static null test — the dynamic if-guard heuristic should have
	// pruned it.
	VerdictStaticallyGuarded Verdict = iota
	// VerdictAllocSafe: the race's load is allocation-dominated — a
	// static intra-event-allocation witness.
	VerdictAllocSafe
	// VerdictStaticOrdered: the event-order pass proves the sites
	// must-ordered, yet the dynamic run reported a race — the
	// signature of a Type I false positive (an ordering rule the
	// recorded trace could not expose, e.g. an uninstrumented
	// listener registration).
	VerdictStaticOrdered
	// VerdictStaticConfirmed: the static pre-pass independently
	// enumerates this exact site pair.
	VerdictStaticConfirmed
	// VerdictUnmatched: no static pair exists for the reported sites —
	// the hallmark of a Type III mismatch (the dynamic heuristic
	// matched the dereference to the wrong pointer read) or of a free
	// outside the analyzed bytecode.
	VerdictUnmatched
)

func (v Verdict) String() string {
	switch v {
	case VerdictStaticallyGuarded:
		return "statically-guarded"
	case VerdictAllocSafe:
		return "alloc-safe"
	case VerdictStaticOrdered:
		return "static-ordered"
	case VerdictStaticConfirmed:
		return "static-confirmed"
	case VerdictUnmatched:
		return "static-unmatched"
	default:
		return "verdict?"
	}
}

// CheckedRace is a dynamic race annotated with its static verdict.
type CheckedRace struct {
	Race    detect.Race
	Verdict Verdict
	// OrderWitness is the event-order derivation behind a
	// VerdictStaticOrdered annotation.
	OrderWitness []string
}

// Gap is a statically-possible pair the dynamic run never reported —
// either the schedule did not exercise it, or a dynamic heuristic
// pruned it. Unexercised harmful pairs are the coverage signal a
// trace-bound detector cannot produce.
type Gap struct {
	Pair Pair
	// Ordered: the event-order pass proves the sites must-ordered, so
	// the pair is topology-safe, not a coverage hole. UseBeforeFree
	// and Witness carry the derivation.
	Ordered       bool
	UseBeforeFree bool
	Witness       []string
}

// CrossCheck annotates each dynamic race with its static verdict and
// returns the coverage gaps: unguarded, non-alloc-safe static pairs
// absent from the dynamic report, each annotated with the event-order
// pass's must-order when one exists (orders may be nil). Both slices
// come back in deterministic SiteKey order.
func CrossCheck(pairs []Pair, races []detect.Race, orders *Orders) ([]CheckedRace, []Gap) {
	byKey := make(map[detect.SiteKey]Pair, len(pairs))
	for _, p := range pairs {
		if _, ok := byKey[p.Key]; !ok {
			byKey[p.Key] = p
		}
	}
	checked := make([]CheckedRace, 0, len(races))
	reported := make(map[detect.SiteKey]bool, len(races))
	for _, r := range races {
		k := r.Key()
		reported[k] = true
		cr := CheckedRace{Race: r, Verdict: VerdictUnmatched}
		if p, ok := byKey[k]; ok {
			info, ordered := orders.Lookup(k)
			switch {
			case p.Guarded:
				cr.Verdict = VerdictStaticallyGuarded
			case p.AllocSafe:
				cr.Verdict = VerdictAllocSafe
			case ordered:
				cr.Verdict = VerdictStaticOrdered
				cr.OrderWitness = info.Witness
			default:
				cr.Verdict = VerdictStaticConfirmed
			}
		}
		checked = append(checked, cr)
	}
	sort.SliceStable(checked, func(i, j int) bool {
		return checked[i].Race.Key().Less(checked[j].Race.Key())
	})
	var gaps []Gap
	seenGap := make(map[detect.SiteKey]bool)
	for _, p := range pairs {
		if p.Guarded || p.AllocSafe || reported[p.Key] || seenGap[p.Key] {
			continue
		}
		seenGap[p.Key] = true
		g := Gap{Pair: p}
		if info, ok := orders.Lookup(p.Key); ok {
			g.Ordered = true
			g.UseBeforeFree = info.UseBeforeFree
			g.Witness = info.Witness
		}
		gaps = append(gaps, g)
	}
	sort.SliceStable(gaps, func(i, j int) bool { return gaps[i].Pair.Key.Less(gaps[j].Pair.Key) })
	return checked, gaps
}
