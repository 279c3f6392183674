package analysis

import (
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/provenance"
	"cafa/internal/static"
)

// TestDynSoundOrdersAgreeWithHB checks the static event-order pass
// against the dynamic happens-before model on all ten app models. The
// detector takes ordering from hb alone; the static pass's dyn-sound
// orders claim to follow from rules hb mirrors on every trace (post,
// fork/join, rpc, program order), so they are an independent reading
// of those rules. Every candidate instance the detector filtered as
// ordered, and every reported race, whose site pair carries a
// dyn-sound order must be HB-ordered in the same direction — the
// static relation is a subset of the dynamic one on every recorded
// schedule. In particular no reported race may sit on such a pair.
func TestDynSoundOrdersAgreeWithHB(t *testing.T) {
	for _, spec := range apps.Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr, b := appTraceAndProgram(t, spec)
			res, err := Analyze(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Detect again with an uncapped collector, so every ordered
			// prune keeps its record.
			col := provenance.NewCollector(res.Trace, res.Graph, res.Conventional, res.Locks,
				provenance.Options{MaxPruned: -1})
			det, err := detect.Detect(detect.Input{
				Trace: res.Trace, Graph: res.Graph, Conventional: res.Conventional,
				Locks: res.Locks, Collector: col,
			}, detect.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := static.AnalyzeOpts(b.Prog, static.Options{
				Roots: static.RootsFromNames(b.Prog, b.Sys.Roots()),
			})
			g := res.Graph
			checked := 0
			check := func(what string, u detect.Use, f detect.Free) {
				k := detect.Race{Use: u, Free: f}.Key()
				info, ok := st.Orders.Lookup(k)
				if !ok || !info.DynSound {
					return
				}
				checked++
				if g.ConcurrentAt(u.ReadIdx, u.Task, f.Idx, f.Task) {
					t.Errorf("%s %+v: dyn-sound order but HB-concurrent at (%d, %d)\n  witness: %v",
						what, k, u.ReadIdx, f.Idx, info.Witness)
				}
				if got := g.OrderedAt(u.ReadIdx, u.Task, f.Idx, f.Task); got != info.UseBeforeFree {
					t.Errorf("%s %+v: HB use-before-free=%v, static says %v\n  witness: %v",
						what, k, got, info.UseBeforeFree, info.Witness)
				}
			}
			for _, rec := range col.PrunedRecords() {
				if rec.W.Stage == detect.PruneOrdered {
					check("ordered prune", rec.Use, rec.Free)
				}
			}
			ordered := checked
			for _, r := range det.Races {
				check("reported race", r.Use, r.Free)
			}
			if n := checked - ordered; n != 0 {
				t.Errorf("%d reported race(s) sit on dyn-sound pairs", n)
			}
			if checked == 0 {
				// The ordered scenario runs on every app.
				t.Error("no HB-ordered candidate carries a dyn-sound order; want at least one per app")
			}
		})
	}
}
