package cafa

import (
	"runtime"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/sim"
	"cafa/internal/static"
)

// TestStaticPasses runs the whole-program static layer, event-order
// pass included, over each app model, one app at a time, and checks
// that the order pass closes at least one coverage gap on every app
// (the ordered scenario runs on each). Under -update-bench it records
// one row per app: program size, candidate pairs, how the order pass
// splits the unguarded ones, and the wall-clock of each pass.
func TestStaticPasses(t *testing.T) {
	rows := make([]benchRow, 0, len(apps.Registry))
	for _, spec := range apps.Registry {
		// The program text is scale- and seed-independent; the build
		// wires every root before Run, so the app never executes.
		b, err := apps.Build(spec, sim.Config{Seed: 1}, benchScale)
		if err != nil {
			t.Fatal(err)
		}
		st := static.AnalyzeOpts(b.Prog, static.Options{
			Roots: static.RootsFromNames(b.Prog, b.Sys.Roots()),
		})
		// Gaps: distinct site pairs neither guarded nor alloc-safe,
		// before and after the order pass removes the ordered ones.
		var gapsWithout, gapsWith int
		seen := make(map[detect.SiteKey]bool)
		for _, p := range st.Pairs {
			if seen[p.Key] || p.Guarded || p.AllocSafe {
				continue
			}
			seen[p.Key] = true
			gapsWithout++
			if _, ok := st.Orders.Lookup(p.Key); !ok {
				gapsWith++
			}
		}
		if gapsWith >= gapsWithout {
			t.Errorf("%s: order pass closed no coverage gap (%d before, %d after)", spec.Name, gapsWithout, gapsWith)
		}
		tm := st.Timing
		rows = append(rows, benchRow{Name: "static/" + spec.Name, Values: map[string]float64{
			"methods":            float64(len(b.Prog.Methods)),
			"deref_sites":        float64(len(st.Resolutions)),
			"pairs":              float64(len(st.Pairs)),
			"ordered_pairs":      float64(st.Orders.Ordered()),
			"gaps_without_order": float64(gapsWithout),
			"gaps_with_order":    float64(gapsWith),
			"callgraph_ns":       float64(tm.CallGraph.Nanoseconds()),
			"resolve_ns":         float64(tm.Resolve.Nanoseconds()),
			"guards_ns":          float64(tm.Guards.Nanoseconds()),
			"alloc_ns":           float64(tm.Alloc.Nanoseconds()),
			"pairs_ns":           float64(tm.Pairs.Nanoseconds()),
			"order_ns":           float64(tm.Order.Nanoseconds()),
			"total_ns":           float64(tm.Total.Nanoseconds()),
		}})
	}
	recordBench(t, runtime.GOMAXPROCS(0), rows...)
}
