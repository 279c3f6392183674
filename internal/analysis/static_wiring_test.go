package analysis

import (
	"reflect"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/sim"
	"cafa/internal/static"
	"cafa/internal/trace"
)

func appTraceAndProgram(t testing.TB, spec apps.Spec) (*trace.Trace, *apps.BuildOut) {
	t.Helper()
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	return col.T, out
}

// TestStaticGuardsAgreeWithDetector checks the static if-guard pass
// (static.Guards, cafa-lint's statically-guarded verdict) against the
// dynamic if-guard heuristic on all ten app models, both ways. No
// reported race may dereference at a statically guarded site: the
// dynamic heuristic already prunes every such use on the suite. And
// with the heuristic off, the races that appear must be exactly the
// ones at guarded sites, and there must be some — so the static pass
// marks the guards the heuristic prunes, not merely none of the
// reported sites.
func TestStaticGuardsAgreeWithDetector(t *testing.T) {
	for _, spec := range apps.Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr, b := appTraceAndProgram(t, spec)
			guards := static.Analyze(b.Prog).Guards
			guarded := func(r detect.Race) bool {
				return guards[dataflow.Key{Method: r.Use.Method, PC: r.Use.DerefPC}]
			}
			plain, err := Analyze(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			reported := make(map[detect.SiteKey]bool)
			for _, r := range plain.Races {
				reported[r.Key()] = true
				if guarded(r) {
					t.Errorf("reported race at a statically guarded deref: %s", r.Describe(tr))
				}
			}
			off, err := Analyze(tr, Options{Detect: detect.Options{DisableIfGuard: true}})
			if err != nil {
				t.Fatal(err)
			}
			appeared := 0
			for _, r := range off.Races {
				if reported[r.Key()] {
					continue
				}
				appeared++
				if !guarded(r) {
					t.Errorf("DisableIfGuard: race at an unguarded deref appeared: %s", r.Describe(tr))
				}
			}
			if appeared == 0 {
				t.Error("DisableIfGuard added no race; want the guarded sites to surface")
			}
			t.Logf("%d race(s) appear under DisableIfGuard, %d guarded site(s)", appeared, len(guards))
		})
	}
}

// TestInterprocMatchesIntraOnApps: the interprocedural deref
// resolution must agree with the intra-method §6.3 pass on every app
// model — wherever the intra pass pins a deref to a load site or a
// fresh allocation, the interprocedural projection resolves
// identically, and the handler-parameter cases it cannot close under
// the open world fall back to dynamic matching exactly like
// SrcUnknown does. Identical races means in particular the same Type
// III eliminations (no precision regression).
func TestInterprocMatchesIntraOnApps(t *testing.T) {
	for _, spec := range apps.Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr, b := appTraceAndProgram(t, spec)
			intra, err := Analyze(tr, Options{DerefSources: dataflow.DerefSources(b.Prog)})
			if err != nil {
				t.Fatal(err)
			}
			_, derefs := static.ResolveDerefs(static.BuildCallGraph(b.Prog))
			inter, err := Analyze(tr, Options{DerefSources: derefs})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inter.Races, intra.Races) {
				t.Errorf("races differ:\n  intra: %+v\n  interproc: %+v", intra.Races, inter.Races)
			}
			if inter.Stats != intra.Stats {
				t.Errorf("stats differ: intra %+v, interproc %+v", intra.Stats, inter.Stats)
			}
		})
	}
}
