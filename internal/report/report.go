// Package report drives the end-to-end evaluation pipeline (app model
// → trace → causality graphs → detector) and renders the paper's
// Table 1 and Figure 8 with paper-vs-measured columns, scoring the
// detector's output against each app's planted ground truth.
package report

import (
	"fmt"
	"sort"
	"strings"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/dataflow"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/sim"
	"cafa/internal/static"
	"cafa/internal/trace"
)

// AppResult is the measured Table 1 row for one application, scored
// against ground truth.
type AppResult struct {
	Name          string
	Paper         apps.PaperRow
	Events        int // measured event count
	Reported      int
	A, B, C       int // true races, classified by the detector
	FP1, FP2, FP3 int
	// Misclassified lists true races whose detector class differs
	// from the planted class; Missed lists planted races that were
	// not reported; Unexpected counts reports on unplanted fields.
	Misclassified []string
	Missed        []string
	Unexpected    int
	NaiveRaces    int
	DetectStats   detect.Stats
	HBStats       hb.Stats
	Crashes       int
}

// Harmful returns the measured true-race count.
func (r *AppResult) Harmful() int { return r.A + r.B + r.C }

// RunOptions configures an evaluation run.
type RunOptions struct {
	// Seed drives the simulated scheduler.
	Seed uint64
	// Scale divides the benign filler volume (1 = the paper's full
	// event counts; tests use larger scales).
	Scale int
	// Naive additionally runs the low-level baseline detector (it is
	// quadratic per location and adds noticeable time at scale 1).
	Naive bool
	// Detect carries detector ablation switches.
	Detect detect.Options
	// Precise enables the static data-flow use-matching extension
	// (§6.3 future work): Type III false positives disappear.
	Precise bool
	// Interproc matches uses through the interprocedural def-use
	// resolution (internal/static) instead of the intra-method pass.
	// Implies the Precise guarantees: it never resolves a deref to a
	// site the intra-method pass pinpoints differently, so Type III
	// false positives disappear here too.
	Interproc bool
	// Workers bounds RunAll's app-level concurrency (0 = GOMAXPROCS).
	Workers int
}

// RunApp executes one application model and analyzes its trace.
func RunApp(spec apps.Spec, opts RunOptions) (*AppResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	col := trace.NewCollector()
	b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: opts.Seed}, opts.Scale)
	if err != nil {
		return nil, err
	}
	if err := b.Sys.Run(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", spec.Name, err)
	}
	res, err := analyze(col.T, b, opts)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", spec.Name, err)
	}
	res.Crashes = len(b.Sys.Crashes())
	return res, nil
}

func analyze(tr *trace.Trace, b *apps.BuildOut, opts RunOptions) (*AppResult, error) {
	popts := analysis.Options{Detect: opts.Detect, Naive: opts.Naive}
	switch {
	case opts.Interproc:
		_, popts.DerefSources = static.ResolveDerefs(static.BuildCallGraph(b.Prog))
	case opts.Precise:
		popts.DerefSources = dataflow.DerefSources(b.Prog)
	}
	det, err := analysis.Analyze(tr, popts)
	if err != nil {
		return nil, err
	}
	res := &AppResult{
		Name:        b.Spec.Name,
		Paper:       b.Spec.Paper,
		Events:      tr.EventCount(),
		Reported:    len(det.Races),
		DetectStats: det.Stats,
		HBStats:     det.GraphStats,
	}
	truth := b.TruthByField()
	seen := make(map[string]bool)
	for _, race := range det.Races {
		field := tr.FieldName(race.Use.Var.Field())
		pl, ok := truth[field]
		if !ok {
			res.Unexpected++
			continue
		}
		seen[field] = true
		switch pl.Label {
		case apps.LabelTrueA, apps.LabelTrueB, apps.LabelTrueC:
			want := map[apps.Label]detect.Class{
				apps.LabelTrueA: detect.ClassIntraThread,
				apps.LabelTrueB: detect.ClassInterThread,
				apps.LabelTrueC: detect.ClassConventional,
			}[pl.Label]
			if race.Class != want {
				res.Misclassified = append(res.Misclassified,
					fmt.Sprintf("%s: planted %s, detected %s", field, pl.Label, race.Class))
			}
			switch race.Class {
			case detect.ClassIntraThread:
				res.A++
			case detect.ClassInterThread:
				res.B++
			case detect.ClassConventional:
				res.C++
			}
		case apps.LabelFP1:
			res.FP1++
		case apps.LabelFP2:
			res.FP2++
		case apps.LabelFP3:
			res.FP3++
		case apps.LabelFiltered:
			// Guarded-benign traffic must be pruned by the heuristics;
			// a report here is a filter failure.
			res.Misclassified = append(res.Misclassified,
				fmt.Sprintf("%s: benign scenario reported (heuristics failed to prune)", field))
		}
	}
	for _, pl := range b.Truth {
		if pl.Label == apps.LabelFiltered {
			continue // absence is the expected outcome
		}
		if (opts.Precise || opts.Interproc) && pl.Label == apps.LabelFP3 {
			continue // the data-flow extension eliminates these by design
		}
		if !seen[pl.Field] {
			res.Missed = append(res.Missed, fmt.Sprintf("%s (%s)", pl.Field, pl.Label))
		}
	}
	sort.Strings(res.Missed)
	if opts.Naive {
		res.NaiveRaces = len(det.Naive)
	}
	return res, nil
}

// RunAll evaluates every registered application. The apps run and
// analyze concurrently under a bounded worker pool (opts.Workers);
// results keep registry order and are identical to a serial run.
func RunAll(opts RunOptions) ([]*AppResult, error) {
	out := make([]*AppResult, len(apps.Registry))
	errs := make([]error, len(apps.Registry))
	analysis.ForEach(opts.Workers, len(apps.Registry), func(i int) {
		out[i], errs[i] = RunApp(apps.Registry[i], opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Table1 renders the paper-vs-measured Table 1. Each cell is
// "measured/paper".
func Table1(results []*AppResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %9s %9s | %7s %7s %7s | %7s %7s %7s\n",
		"Application", "Events", "Reported", "a", "b", "c", "I", "II", "III")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 96))
	var tot, pTot AppResult
	for _, r := range results {
		fmt.Fprintf(&sb, "%-12s %9s %9s | %7s %7s %7s | %7s %7s %7s\n",
			r.Name,
			cell(r.Events, r.Paper.Events),
			cell(r.Reported, r.Paper.Reported),
			cell(r.A, r.Paper.A), cell(r.B, r.Paper.B), cell(r.C, r.Paper.C),
			cell(r.FP1, r.Paper.FP1), cell(r.FP2, r.Paper.FP2), cell(r.FP3, r.Paper.FP3))
		tot.Reported += r.Reported
		tot.A += r.A
		tot.B += r.B
		tot.C += r.C
		tot.FP1 += r.FP1
		tot.FP2 += r.FP2
		tot.FP3 += r.FP3
		pTot.Reported += r.Paper.Reported
		pTot.A += r.Paper.A
		pTot.B += r.Paper.B
		pTot.C += r.Paper.C
		pTot.FP1 += r.Paper.FP1
		pTot.FP2 += r.Paper.FP2
		pTot.FP3 += r.Paper.FP3
	}
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 96))
	fmt.Fprintf(&sb, "%-12s %9s %9s | %7s %7s %7s | %7s %7s %7s\n",
		"Overall", "",
		cell(tot.Reported, pTot.Reported),
		cell(tot.A, pTot.A), cell(tot.B, pTot.B), cell(tot.C, pTot.C),
		cell(tot.FP1, pTot.FP1), cell(tot.FP2, pTot.FP2), cell(tot.FP3, pTot.FP3))
	harm := tot.A + tot.B + tot.C
	pharm := pTot.A + pTot.B + pTot.C
	prec, pprec := 0.0, 0.0
	if tot.Reported > 0 {
		prec = 100 * float64(harm) / float64(tot.Reported)
	}
	if pTot.Reported > 0 {
		pprec = 100 * float64(pharm) / float64(pTot.Reported)
	}
	fmt.Fprintf(&sb, "\nHarmful races: measured %d (paper %d); precision measured %.0f%% (paper %.0f%%)\n",
		harm, pharm, prec, pprec)
	return sb.String()
}

// cell renders "measured/paper".
func cell(measured, paper int) string {
	return fmt.Sprintf("%d/%d", measured, paper)
}

// Problems summarizes ground-truth mismatches across results (empty
// string when the reproduction is exact).
func Problems(results []*AppResult) string {
	var sb strings.Builder
	for _, r := range results {
		for _, m := range r.Missed {
			fmt.Fprintf(&sb, "%s: missed %s\n", r.Name, m)
		}
		for _, m := range r.Misclassified {
			fmt.Fprintf(&sb, "%s: misclassified %s\n", r.Name, m)
		}
		if r.Unexpected > 0 {
			fmt.Fprintf(&sb, "%s: %d unexpected reports\n", r.Name, r.Unexpected)
		}
	}
	return sb.String()
}
