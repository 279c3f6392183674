// Command cafa-analyze is the offline half of the CAFA pipeline: it
// reads recorded traces, builds the event-driven causality model, and
// reports use-free races (§4). It accepts one or more trace files
// and/or directories (directories expand to their *.trace files) and
// analyzes them in parallel, emitting one aggregated report.
//
// Usage:
//
//	cafa-analyze [-j N] [-naive] [-keep-dups] [-json]
//	             [-stats] [-explain] [-context]
//	             [-no-ifguard] [-no-intra-alloc] [-no-lockset]
//	             [-progress] [-metrics] [-trace-out file] [-debug-addr addr]
//	             [-evidence-out file] [-dot-out file] [-html-out file]
//	             [-diff baseline.json]
//	             trace-file|trace-dir ...
//
// The observability flags enable the internal/obs layer: -progress
// streams per-trace batch progress to stderr, -metrics appends the
// metric summary table, -trace-out writes a Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing), and -debug-addr serves
// /metrics plus net/http/pprof for the duration of the run.
//
// The provenance flags attach an evidence collector to the detector
// (internal/provenance): -evidence-out writes the JSON evidence
// bundle (per-race causality verdicts and per-filtered-candidate
// prune witnesses), -dot-out writes per-race Graphviz causality
// subgraphs, -html-out writes the self-contained HTML triage report,
// and -diff compares the run's races against a baseline evidence
// bundle by code site, printing new/fixed/persisting counts. With
// -debug-addr, the triage report is also served live at /triage
// while the batch is still running.
//
// Exit codes: 1 for malformed inputs (decode/validation failures), 2
// for I/O failures (missing or unreadable inputs), 3 when -diff
// finds races not present in the baseline (report regression).
//
// The legacy single-input form `cafa-analyze -i app.trace` still
// works.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cafa/internal/analysis"
	"cafa/internal/buildinfo"
	"cafa/internal/detect"
	"cafa/internal/obs"
	"cafa/internal/provenance"
	"cafa/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cafa-analyze: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// errClass partitions input failures for exit-code reporting.
type errClass uint8

const (
	classIO     errClass = iota // missing/unreadable input → exit 2
	classDecode                 // malformed input → exit 1
)

func (c errClass) String() string {
	if c == classIO {
		return "read"
	}
	return "decode"
}

// inputError tags a failing input with its path and failure class, so
// batch runs always name the offending file and the caller can tell
// "the file is unreadable" from "the file is not a trace".
type inputError struct {
	path  string
	class errClass
	err   error
}

func (e *inputError) Error() string { return fmt.Sprintf("%s: %s: %v", e.path, e.class, e.err) }
func (e *inputError) Unwrap() error { return e.err }

// regressionError reports that -diff found races absent from the
// baseline bundle.
type regressionError struct{ n int }

func (e *regressionError) Error() string {
	return fmt.Sprintf("report regression: %d race site(s) not in the baseline", e.n)
}

// exitCode maps an error to the process exit code: 3 for a -diff
// report regression, 2 for I/O failures, 1 for everything else
// (decode errors, usage errors).
func exitCode(err error) int {
	var re *regressionError
	if errors.As(err, &re) {
		return 3
	}
	var ie *inputError
	if errors.As(err, &ie) && ie.class == classIO {
		return 2
	}
	return 1
}

// config carries the parsed command line.
type config struct {
	inputs    []string
	version   bool
	confirm   bool
	workers   int
	naive     bool
	keepDups  bool
	noGuard   bool
	noAlloc   bool
	noLocks   bool
	stats     bool
	explain   bool
	context   bool
	asJSON    bool
	progress  bool
	metrics   bool
	traceOut  string
	debugAddr string

	evidenceOut string
	dotOut      string
	htmlOut     string
	diff        string
	// live is the /triage handler, wired by run when both the debug
	// listener and evidence collection are active.
	live *provenance.LiveTriage
}

// wantObs reports whether any flag needs the obs layer enabled.
func (c *config) wantObs() bool {
	return c.progress || c.metrics || c.traceOut != "" || c.debugAddr != ""
}

// wantEvidence reports whether any flag needs the provenance
// collector attached. The debug listener always serves /triage, so
// it implies evidence too.
func (c *config) wantEvidence() bool {
	return c.evidenceOut != "" || c.dotOut != "" || c.htmlOut != "" ||
		c.diff != "" || c.debugAddr != ""
}

func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("cafa-analyze", flag.ContinueOnError)
	var (
		in        = fs.String("i", "", "input trace file (legacy; positional arguments are preferred)")
		version   = fs.Bool("version", false, "print version and exit")
		confirm   = fs.Bool("confirm", false, "adversarially replay reported races on inputs named after registered app models")
		workers   = fs.Int("j", 0, "trace-level parallelism (0 = GOMAXPROCS)")
		naive     = fs.Bool("naive", false, "also run the low-level conflicting-access baseline")
		keepDups  = fs.Bool("keep-dups", false, "report every dynamic race instance")
		noGuard   = fs.Bool("no-ifguard", false, "disable the if-guard heuristic")
		noAlloc   = fs.Bool("no-intra-alloc", false, "disable the intra-event-allocation heuristic")
		noLocks   = fs.Bool("no-lockset", false, "disable the lockset mutual-exclusion filter")
		stats     = fs.Bool("stats", false, "print pipeline statistics")
		explain   = fs.Bool("explain", false, "for each race, show why the conventional model hides it")
		context   = fs.Bool("context", false, "print calling contexts for each race")
		asJSON    = fs.Bool("json", false, "emit the race report as JSON")
		progress  = fs.Bool("progress", false, "stream per-trace progress lines to stderr in batch mode")
		metrics   = fs.Bool("metrics", false, "append the obs metric summary table to the report")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/pprof and /triage on this address during the run")

		evidenceOut = fs.String("evidence-out", "", "write the JSON race-evidence bundle to this file")
		dotOut      = fs.String("dot-out", "", "write per-race Graphviz causality subgraphs to this file")
		htmlOut     = fs.String("html-out", "", "write the HTML triage report to this file")
		diff        = fs.String("diff", "", "compare race sites against this baseline evidence bundle (exit 3 on new races)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *version {
		return &config{version: true}, nil
	}
	var raw []string
	if *in != "" {
		raw = append(raw, *in)
	}
	raw = append(raw, fs.Args()...)
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing input: pass trace files/directories (or legacy -i <trace file>)")
	}
	inputs, err := expandInputs(raw)
	if err != nil {
		return nil, err
	}
	return &config{
		inputs:  inputs,
		confirm: *confirm,
		workers: *workers,
		naive:   *naive, keepDups: *keepDups,
		noGuard: *noGuard, noAlloc: *noAlloc, noLocks: *noLocks,
		stats: *stats, explain: *explain, context: *context, asJSON: *asJSON,
		progress: *progress, metrics: *metrics, traceOut: *traceOut, debugAddr: *debugAddr,
		evidenceOut: *evidenceOut, dotOut: *dotOut, htmlOut: *htmlOut, diff: *diff,
	}, nil
}

// expandInputs resolves directories to their *.trace files (sorted)
// and keeps files as-is.
func expandInputs(raw []string) ([]string, error) {
	var out []string
	for _, p := range raw {
		st, err := os.Stat(p)
		if err != nil {
			return nil, &inputError{path: p, class: classIO, err: err}
		}
		if !st.IsDir() {
			out = append(out, p)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.trace"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: directory contains no *.trace files", p)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	if cfg.version {
		fmt.Fprintln(stdout, buildinfo.String("cafa-analyze"))
		return nil
	}
	if cfg.wantObs() {
		obs.Enable()
		defer func() {
			obs.Disable()
			obs.Reset()
		}()
	}
	if cfg.debugAddr != "" {
		cfg.live = provenance.NewLiveTriage()
		ds, err := obs.ServeDebug(cfg.debugAddr, obs.Route{Pattern: "/triage", Handler: cfg.live})
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ds.ShutdownOnExit()
		fmt.Fprintf(stderr, "cafa-analyze: debug listener on http://%s (/metrics, /debug/pprof/, /triage)\n", ds.Addr())
	}
	if cfg.progress {
		cancel := obs.Subscribe(newProgress(stderr, len(cfg.inputs)).span)
		defer cancel()
	}
	reports, err := analyzeFiles(cfg)
	if err != nil {
		return err
	}
	if cfg.traceOut != "" {
		if err := writeTraceEvents(cfg.traceOut); err != nil {
			return err
		}
	}
	if cfg.asJSON {
		if cfg.confirm {
			return fmt.Errorf("-confirm annotates the text report; drop -json")
		}
		if err := report.RenderJSON(stdout, reports); err != nil {
			return err
		}
	} else {
		if err := emitText(stdout, cfg, reports); err != nil {
			return err
		}
		if cfg.confirm {
			if err := emitConfirm(stdout, reports); err != nil {
				return err
			}
		}
	}
	var diffErr error
	if cfg.wantEvidence() {
		bundle := report.BuildBundle(reports)
		if err := writeEvidenceOutputs(cfg, bundle); err != nil {
			return err
		}
		if cfg.diff != "" {
			d, err := diffBaseline(cfg.diff, bundle)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, d.Format())
			if d.HasNew() {
				diffErr = &regressionError{n: len(d.New)}
			}
		}
	}
	if cfg.metrics {
		if err := obs.WriteSummary(stdout); err != nil {
			return err
		}
	}
	return diffErr
}

// writeEvidenceOutputs renders the bundle to every requested sink.
func writeEvidenceOutputs(cfg *config, b *provenance.Bundle) error {
	emit := func(path, what string, render func(io.Writer, *provenance.Bundle) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := render(f, b); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", what, err)
		}
		return f.Close()
	}
	if err := emit(cfg.evidenceOut, "evidence-out", func(w io.Writer, b *provenance.Bundle) error {
		return b.WriteJSON(w)
	}); err != nil {
		return err
	}
	if err := emit(cfg.dotOut, "dot-out", provenance.WriteDOT); err != nil {
		return err
	}
	return emit(cfg.htmlOut, "html-out", provenance.WriteHTML)
}

// diffBaseline loads the baseline bundle and diffs the run against
// it by race site.
func diffBaseline(path string, cur *provenance.Bundle) (*provenance.DiffResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &inputError{path: path, class: classIO, err: err}
	}
	defer f.Close()
	base, err := provenance.ReadBundle(f)
	if err != nil {
		return nil, &inputError{path: path, class: classDecode, err: err}
	}
	return provenance.Diff(base, cur, path), nil
}

// writeTraceEvents dumps the recorded span stream as Chrome
// trace-event JSON.
func writeTraceEvents(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := obs.WriteTraceEvents(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// analyzeFiles analyzes every input under the bounded worker pool,
// preserving input order. Each input runs under one "analyze" obs
// span (the ingest sweep, then the pipeline's finish spans), which is
// what the -progress stream and -trace-out timeline key on. Entries
// are retained only for the outputs that read them: evidence, -naive
// and -explain.
func analyzeFiles(cfg *config) ([]*report.FileReport, error) {
	p := analysis.New(analysis.Options{
		Detect: detect.Options{
			DisableIfGuard:         cfg.noGuard,
			DisableIntraEventAlloc: cfg.noAlloc,
			DisableLockset:         cfg.noLocks,
			KeepDuplicates:         cfg.keepDups,
		},
		Naive: cfg.naive,
		// -explain renders Explain paths through the retained
		// entries; the collector it attaches changes no result.
		Evidence: cfg.wantEvidence() || cfg.explain,
	})
	reports := make([]*report.FileReport, len(cfg.inputs))
	errs := make([]error, len(cfg.inputs))
	analysis.ForEach(cfg.workers, len(cfg.inputs), func(i int) {
		path := cfg.inputs[i]
		sp := obs.Start("analyze", obs.String("file", path), obs.Int("idx", i))
		defer sp.End()
		res, err := streamTrace(p, path, sp)
		if err != nil {
			sp.SetAttr(obs.String("error", err.Error()))
			errs[i] = err
			return
		}
		reports[i] = &report.FileReport{File: path, Trace: res.Trace, Result: res}
		if cfg.live != nil && res.Evidence != nil {
			in := res.Evidence.Bundle(path)
			in.Stats = res.Stats
			cfg.live.Add(in, res.Stats)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// streamTrace analyzes path in one sweep: decoding, validation, and
// the per-entry passes advance together, so the trace entries are
// materialized only when the options retain them.
func streamTrace(p *analysis.Pipeline, path string, sp *obs.Span) (*analysis.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &inputError{path: path, class: classIO, err: err}
	}
	defer f.Close()
	res, err := p.AnalyzeStreamSpanned(f, sp)
	if err != nil {
		return nil, &inputError{path: path, class: classDecode, err: err}
	}
	return res, nil
}

func emitText(w io.Writer, cfg *config, reports []*report.FileReport) error {
	var agg struct {
		races, a, b, c, naive int
		stats                 detect.Stats
	}
	for _, rep := range reports {
		tr, res := rep.Trace, rep.Result
		fmt.Fprintf(w, "%s: %d events, %d entries\n", rep.File, tr.EventCount(), tr.Len())
		fmt.Fprintf(w, "use-free races: %d\n", len(res.Races))
		var a, b, c int
		for _, r := range res.Races {
			fmt.Fprintf(w, "  [%s] %s\n", r.Class, r.Describe(tr))
			if cfg.context {
				fmt.Fprintf(w, "    use context:  %s\n", detect.FormatStack(tr, res.Stacks[r.Use.DerefIdx]))
				fmt.Fprintf(w, "    free context: %s\n", detect.FormatStack(tr, res.Stacks[r.Free.Idx]))
			}
			if cfg.explain {
				v := provenance.ExplainConv(res.Conventional, r.Use.ReadIdx, r.Free.Idx)
				fmt.Fprintln(w, v.Format(res.Conventional, "    "))
			}
			switch r.Class {
			case detect.ClassIntraThread:
				a++
			case detect.ClassInterThread:
				b++
			case detect.ClassConventional:
				c++
			}
		}
		fmt.Fprintf(w, "by class: intra-thread=%d inter-thread=%d conventional=%d\n", a, b, c)
		if cfg.stats {
			st := res.Stats
			fmt.Fprintf(w, "pipeline: uses=%d frees=%d allocs=%d candidates=%d\n",
				st.Uses, st.Frees, st.Allocs, st.Candidates)
			fmt.Fprintf(w, "filtered: ordered=%d lockset=%d if-guard=%d intra-alloc=%d duplicates=%d\n",
				st.FilteredOrdered, st.FilteredLockset, st.FilteredIfGuard, st.FilteredIntraAlloc, st.Duplicates)
			gs := res.GraphStats
			fmt.Fprintf(w, "graph: nodes=%d base-edges=%d rule-edges=%d fixpoint-rounds=%d\n",
				gs.Nodes, gs.BaseEdges, gs.RuleEdges, gs.Rounds)
		}
		if cfg.naive {
			fmt.Fprintf(w, "low-level conflicting-access races (naive baseline): %d\n", len(res.Naive))
		}
		agg.races += len(res.Races)
		agg.a += a
		agg.b += b
		agg.c += c
		agg.naive += len(res.Naive)
		agg.stats.Add(res.Stats)
	}
	if len(reports) > 1 {
		fmt.Fprintf(w, "\n=== aggregate over %d traces ===\n", len(reports))
		fmt.Fprintf(w, "use-free races: %d\n", agg.races)
		fmt.Fprintf(w, "by class: intra-thread=%d inter-thread=%d conventional=%d\n", agg.a, agg.b, agg.c)
		if cfg.stats {
			st := agg.stats
			fmt.Fprintf(w, "pipeline: uses=%d frees=%d allocs=%d candidates=%d\n",
				st.Uses, st.Frees, st.Allocs, st.Candidates)
			fmt.Fprintf(w, "filtered: ordered=%d lockset=%d if-guard=%d intra-alloc=%d duplicates=%d\n",
				st.FilteredOrdered, st.FilteredLockset, st.FilteredIfGuard, st.FilteredIntraAlloc, st.Duplicates)
		}
		if cfg.naive {
			fmt.Fprintf(w, "low-level conflicting-access races (naive baseline): %d\n", agg.naive)
		}
	}
	return nil
}

func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
