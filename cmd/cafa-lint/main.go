// Command cafa-lint runs the whole-program static analysis layer
// (internal/static) alone — no trace required — and enumerates the
// statically-possible use-after-free site pairs per field: every
// dereference whose pointer may originate from a field load, crossed
// with every null store to the same field, annotated with the static
// guard and allocation-domination classifications.
//
// Given a dynamic report to compare against (a recorded trace via
// -trace, or a fresh in-process run via -dynamic), it cross-checks
// the two worlds: each dynamic race is annotated
// statically-guarded / alloc-safe / static-confirmed /
// static-unmatched (the latter is the Type III signature — the
// dynamic matcher blamed sites that do not exist in the bytecode),
// and static candidates the dynamic run never reported are listed as
// coverage gaps.
//
// Usage:
//
// The static event-order pass (-order, on by default) additionally
// computes a must-happens-before relation from the app's event
// topology (posts, fork/join, rpc, listener registration, program
// order) under the closed world of harness entry points. Ordered
// pairs are annotated static-ordered instead of being counted as
// coverage gaps, and -json carries the ordering witness path.
//
// Usage:
//
//	cafa-lint [-app name|all] [-trace file] [-dynamic] [-order=false]
//	          [-scale N] [-seed N] [-json] [-metrics] [-html-out file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/buildinfo"
	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/sim"
	"cafa/internal/static"
	"cafa/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cafa-lint: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	app       string
	version   bool
	traceFile string
	dynamic   bool
	order     bool
	scale     int
	seed      uint64
	asJSON    bool
	metrics   bool
	htmlOut   string
}

func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("cafa-lint", flag.ContinueOnError)
	var (
		app     = fs.String("app", "all", "application model to lint (name, or 'all')")
		traceIn = fs.String("trace", "", "recorded trace to cross-check against (single -app only)")
		dynamic = fs.Bool("dynamic", false, "run the app and the dynamic detector in-process and cross-check")
		order   = fs.Bool("order", true, "run the static event-order pass over the app's entry-point roots")
		scale   = fs.Int("scale", 16, "event-volume divisor for -dynamic runs")
		seed    = fs.Uint64("seed", 1, "scheduler seed for -dynamic runs")
		asJSON  = fs.Bool("json", false, "emit the lint report as JSON")
		metrics = fs.Bool("metrics", false, "append a summary of static-pass metrics after the report")
		htmlOut = fs.String("html-out", "", "write an HTML triage report with the ranked static coverage gaps")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *version {
		return &config{version: true}, nil
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := &config{
		app: *app, traceFile: *traceIn, dynamic: *dynamic, order: *order,
		scale: *scale, seed: *seed, asJSON: *asJSON, metrics: *metrics,
		htmlOut: *htmlOut,
	}
	if cfg.traceFile != "" && cfg.app == "all" {
		return nil, fmt.Errorf("-trace needs a single -app (the trace must match the app's bytecode)")
	}
	if cfg.traceFile != "" && cfg.dynamic {
		return nil, fmt.Errorf("-trace and -dynamic are mutually exclusive")
	}
	return cfg, nil
}

func specs(cfg *config) ([]apps.Spec, error) {
	if cfg.app == "all" {
		return apps.Registry, nil
	}
	spec, ok := apps.ByName(cfg.app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q (known: %v)", cfg.app, apps.Names())
	}
	return []apps.Spec{spec}, nil
}

// appLint is the lint result for one application model.
type appLint struct {
	spec apps.Spec
	b    *apps.BuildOut
	st   *static.Result
	// Dynamic cross-check (nil without -trace/-dynamic).
	tr      *trace.Trace
	res     *analysis.Result
	checked []static.CheckedRace
	gaps    []static.Gap
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	if cfg.version {
		fmt.Fprintln(stdout, buildinfo.String("cafa-lint"))
		return nil
	}
	sp, err := specs(cfg)
	if err != nil {
		return err
	}
	if cfg.metrics {
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
	}
	lints := make([]*appLint, len(sp))
	errs := make([]error, len(sp))
	analysis.ForEach(0, len(sp), func(i int) {
		lints[i], errs[i] = lintApp(cfg, sp[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", sp[i].Name, err)
		}
	}
	if cfg.asJSON {
		err = emitJSON(stdout, lints)
	} else {
		err = emitText(stdout, lints)
	}
	if err == nil && cfg.htmlOut != "" {
		err = writeHTML(cfg.htmlOut, lints)
	}
	if err == nil && cfg.metrics {
		err = obs.WriteSummary(stdout)
	}
	return err
}

func lintApp(cfg *config, spec apps.Spec) (*appLint, error) {
	// The program text is scale- and seed-independent, so a build at
	// any scale matches a fixture trace recorded at another.
	col := trace.NewCollector()
	b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: cfg.seed}, cfg.scale)
	if err != nil {
		return nil, err
	}
	stOpts := static.Options{}
	if cfg.order {
		// The build wires every thread start and event injection before
		// Run, so the closed-world root inventory exists without
		// executing the app — ordering verdicts stay scale-independent.
		stOpts.Roots = static.RootsFromNames(b.Prog, b.Sys.Roots())
	}
	l := &appLint{spec: spec, b: b, st: static.AnalyzeOpts(b.Prog, stOpts)}

	var res *analysis.Result
	switch {
	case cfg.dynamic:
		if err := b.Sys.Run(); err != nil {
			return nil, err
		}
		res, err = analysis.Analyze(col.T, analysis.Options{})
	case cfg.traceFile != "":
		res, err = analyzeFile(cfg.traceFile)
	default:
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	l.tr, l.res = res.Trace, res
	l.checked, l.gaps = static.CrossCheck(l.st.Pairs, res.Races, l.st.Orders)
	return l, nil
}

// analyzeFile analyzes a recorded trace the way cafa-analyze reads
// one: decode, validation and the per-entry passes in one sweep.
func analyzeFile(path string) (*analysis.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := analysis.New(analysis.Options{}).AnalyzeStream(f, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// methodName resolves a method name through the program (static-only
// runs have no trace tables).
func (l *appLint) methodName(id trace.MethodID) string {
	if m := l.st.Graph.MethodByID(id); m != nil {
		return m.Name
	}
	return fmt.Sprintf("method#%d", id)
}

func (l *appLint) fieldName(id trace.FieldID) string { return l.b.Prog.FieldName(id) }

// pairAnnotations renders the static classification suffix.
func pairAnnotations(p static.Pair, orders *static.Orders) string {
	var tags []string
	if p.Guarded {
		tags = append(tags, "statically-guarded")
	}
	if p.AllocSafe {
		tags = append(tags, "alloc-safe")
	}
	if _, ok := orders.Lookup(p.Key); ok {
		tags = append(tags, "static-ordered")
	}
	if len(tags) == 0 {
		return ""
	}
	return " [" + strings.Join(tags, ", ") + "]"
}

func emitText(w io.Writer, lints []*appLint) error {
	for _, l := range lints {
		st := l.st
		fmt.Fprintf(w, "=== %s ===\n", l.spec.Name)
		edges := 0
		for _, es := range st.Graph.Callees {
			edges += len(es)
		}
		resolved := 0
		for _, r := range st.Resolutions {
			if !r.Incomplete {
				resolved++
			}
		}
		fmt.Fprintf(w, "methods=%d call-edges=%d deref-sites=%d resolved=%d guarded-sites=%d alloc-safe-sites=%d\n",
			len(st.Graph.Prog.Methods), edges, len(st.Resolutions), resolved, count(st.Guards), count(st.AllocSafe))
		fmt.Fprintf(w, "candidate use-after-free pairs: %d\n", len(st.Pairs))
		for _, p := range st.Pairs {
			fmt.Fprintf(w, "  %s: use %s:%d (load %s:%d) free %s:%d%s\n",
				l.fieldName(p.Key.Field),
				l.methodName(p.Key.UseMethod), p.Key.UsePC,
				l.methodName(p.Load.Method), p.Load.PC,
				l.methodName(p.Key.FreeMethod), p.Key.FreePC,
				pairAnnotations(p, st.Orders))
		}
		if st.Orders.Ordered() > 0 {
			fmt.Fprintf(w, "statically-ordered pairs: %d\n", st.Orders.Ordered())
		}
		if l.res != nil {
			fmt.Fprintf(w, "cross-check against dynamic report (%d races):\n", len(l.res.Races))
			for _, cr := range l.checked {
				k := cr.Race.Key()
				fmt.Fprintf(w, "  [%s] %s: use %s:%d free %s:%d (%s)\n",
					cr.Verdict,
					l.fieldName(k.Field),
					l.methodName(k.UseMethod), k.UsePC,
					l.methodName(k.FreeMethod), k.FreePC,
					cr.Race.Class)
			}
			unordered := 0
			for _, g := range l.gaps {
				if !g.Ordered {
					unordered++
				}
			}
			fmt.Fprintf(w, "coverage gaps (static pairs not dynamically reported): %d\n", unordered)
			for _, g := range l.gaps {
				if g.Ordered {
					continue
				}
				k := g.Pair.Key
				fmt.Fprintf(w, "  %s: use %s:%d free %s:%d\n",
					l.fieldName(k.Field),
					l.methodName(k.UseMethod), k.UsePC,
					l.methodName(k.FreeMethod), k.FreePC)
			}
			if n := len(l.gaps) - unordered; n > 0 {
				fmt.Fprintf(w, "statically-ordered pairs excluded from gaps: %d\n", n)
				for _, g := range l.gaps {
					if !g.Ordered {
						continue
					}
					k := g.Pair.Key
					dir := "use-before-free"
					if !g.UseBeforeFree {
						dir = "free-before-use"
					}
					fmt.Fprintf(w, "  %s: use %s:%d free %s:%d [%s]\n",
						l.fieldName(k.Field),
						l.methodName(k.UseMethod), k.UsePC,
						l.methodName(k.FreeMethod), k.FreePC, dir)
				}
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func count(m map[dataflow.Key]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// pairJSON is the machine-readable static candidate pair.
type pairJSON struct {
	Field      string `json:"field"`
	UseMethod  string `json:"useMethod"`
	UsePC      uint32 `json:"usePC"`
	LoadMethod string `json:"loadMethod"`
	LoadPC     uint32 `json:"loadPC"`
	FreeMethod string `json:"freeMethod"`
	FreePC     uint32 `json:"freePC"`
	Guarded    bool   `json:"guarded"`
	AllocSafe  bool   `json:"allocSafe"`
	// Ordered: the static event-order pass proved the pair
	// must-ordered; OrderWitness is its derivation path.
	Ordered      bool     `json:"ordered,omitempty"`
	OrderWitness []string `json:"orderWitness,omitempty"`
}

// checkJSON is one cross-checked dynamic race.
type checkJSON struct {
	Verdict      string   `json:"verdict"`
	Class        string   `json:"class"`
	Field        string   `json:"field"`
	UseMethod    string   `json:"useMethod"`
	UsePC        uint32   `json:"usePC"`
	FreeMethod   string   `json:"freeMethod"`
	FreePC       uint32   `json:"freePC"`
	OrderWitness []string `json:"orderWitness,omitempty"`
}

// appJSON is the per-app lint report.
type appJSON struct {
	App        string      `json:"app"`
	Methods    int         `json:"methods"`
	DerefSites int         `json:"derefSites"`
	Pairs      []pairJSON  `json:"pairs"`
	Checked    []checkJSON `json:"checked,omitempty"`
	Gaps       []pairJSON  `json:"gaps,omitempty"`
	DynRaces   int         `json:"dynamicRaces,omitempty"`
}

func emitJSON(w io.Writer, lints []*appLint) error {
	out := make([]appJSON, 0, len(lints))
	for _, l := range lints {
		a := appJSON{
			App:        l.spec.Name,
			Methods:    len(l.b.Prog.Methods),
			DerefSites: len(l.st.Resolutions),
			Pairs:      []pairJSON{},
		}
		for _, p := range l.st.Pairs {
			a.Pairs = append(a.Pairs, l.pairJSON(p))
		}
		if l.res != nil {
			a.DynRaces = len(l.res.Races)
			for _, cr := range l.checked {
				k := cr.Race.Key()
				a.Checked = append(a.Checked, checkJSON{
					Verdict:      cr.Verdict.String(),
					Class:        cr.Race.Class.String(),
					Field:        l.fieldName(k.Field),
					UseMethod:    l.methodName(k.UseMethod),
					UsePC:        uint32(k.UsePC),
					FreeMethod:   l.methodName(k.FreeMethod),
					FreePC:       uint32(k.FreePC),
					OrderWitness: cr.OrderWitness,
				})
			}
			for _, g := range l.gaps {
				a.Gaps = append(a.Gaps, l.pairJSON(g.Pair))
			}
		}
		out = append(out, a)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func (l *appLint) pairJSON(p static.Pair) pairJSON {
	pj := pairJSON{
		Field:      l.fieldName(p.Key.Field),
		UseMethod:  l.methodName(p.Key.UseMethod),
		UsePC:      uint32(p.Key.UsePC),
		LoadMethod: l.methodName(p.Load.Method),
		LoadPC:     uint32(p.Load.PC),
		FreeMethod: l.methodName(p.Key.FreeMethod),
		FreePC:     uint32(p.Key.FreePC),
		Guarded:    p.Guarded,
		AllocSafe:  p.AllocSafe,
	}
	if info, ok := l.st.Orders.Lookup(p.Key); ok {
		pj.Ordered = true
		pj.OrderWitness = info.Witness
	}
	return pj
}

// siteString renders a SiteKey with program name tables (static-only
// runs have no trace tables to feed provenance.SiteString).
func (l *appLint) siteString(k detect.SiteKey) string {
	return fmt.Sprintf("%s: use %s@%d free %s@%d",
		l.fieldName(k.Field),
		l.methodName(k.UseMethod), k.UsePC,
		l.methodName(k.FreeMethod), k.FreePC)
}

// gapRecords renders the app's static coverage gaps as provenance
// records. With a dynamic cross-check the gaps come from CrossCheck;
// without one every unguarded static pair is a (potential) gap.
func (l *appLint) gapRecords() []provenance.GapRecord {
	var out []provenance.GapRecord
	if l.res != nil {
		for _, g := range l.gaps {
			out = append(out, provenance.GapRecord{
				Site:          l.siteString(g.Pair.Key),
				Ordered:       g.Ordered,
				UseBeforeFree: g.UseBeforeFree,
				Witness:       g.Witness,
			})
		}
		return out
	}
	seen := make(map[detect.SiteKey]bool)
	for _, p := range l.st.Pairs {
		if p.Guarded || p.AllocSafe || seen[p.Key] {
			continue
		}
		seen[p.Key] = true
		gr := provenance.GapRecord{Site: l.siteString(p.Key)}
		if info, ok := l.st.Orders.Lookup(p.Key); ok {
			gr.Ordered = true
			gr.UseBeforeFree = info.UseBeforeFree
			gr.Witness = info.Witness
		}
		out = append(out, gr)
	}
	return out
}

// writeHTML renders the lint results as the provenance HTML triage
// report with the ranked static-coverage-gaps section per app.
func writeHTML(path string, lints []*appLint) error {
	lt := provenance.NewLiveTriage()
	for _, l := range lints {
		in := provenance.InputEvidence{
			File:   l.spec.Name,
			Races:  []provenance.RaceEvidence{},
			Pruned: []provenance.PruneRecord{},
		}
		var stats detect.Stats
		if l.res != nil {
			stats = l.res.Stats
			in.Events = l.tr.EventCount()
			in.Entries = l.tr.Len()
			in.Stats = stats
		}
		lt.Add(in, stats)
		lt.AddGaps(l.spec.Name, l.gapRecords())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := lt.Snapshot()
	if err := provenance.WriteHTML(f, &snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
