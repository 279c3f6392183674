package report

// The machine-readable race report and the evidence-bundle assembly
// used to live inside cmd/cafa-analyze. They are shared here so the
// analysis service (internal/service) serves byte-identical artifacts
// for the same trace and configuration — the differential guarantee
// is structural, not a test-only coincidence.

import (
	"io"

	"cafa/internal/analysis"
	"cafa/internal/detect"
	"cafa/internal/jsonindent"
	"cafa/internal/provenance"
	"cafa/internal/trace"
)

// FileReport is the analysis of one named input: the label under
// which the trace was submitted (a file path in the CLI, an upload
// name in the service), the decoded trace, and its pipeline result.
type FileReport struct {
	File   string
	Trace  *trace.Trace
	Result *analysis.Result
}

// RaceJSON is the machine-readable race record.
type RaceJSON struct {
	Class      string `json:"class"`
	Field      string `json:"field"`
	Var        string `json:"var"`
	UseTask    string `json:"useTask"`
	UseMethod  string `json:"useMethod"`
	UsePC      uint32 `json:"usePC"`
	UseStack   string `json:"useStack"`
	FreeTask   string `json:"freeTask"`
	FreeMethod string `json:"freeMethod"`
	FreePC     uint32 `json:"freePC"`
	FreeStack  string `json:"freeStack"`
}

// InputJSON is the per-trace section of the aggregated JSON report.
type InputJSON struct {
	File    string       `json:"file"`
	Events  int          `json:"events"`
	Entries int          `json:"entries"`
	Races   []RaceJSON   `json:"races"`
	Stats   detect.Stats `json:"stats"`
	Naive   int          `json:"naiveRaces,omitempty"`
}

// ReportJSON is the aggregated machine-readable report.
type ReportJSON struct {
	Inputs     []InputJSON    `json:"inputs"`
	Events     int            `json:"events"`
	TotalRaces int            `json:"totalRaces"`
	ByClass    map[string]int `json:"byClass"`
	Stats      detect.Stats   `json:"stats"`
}

// BuildJSON assembles the aggregated machine-readable report.
func BuildJSON(reports []*FileReport) *ReportJSON {
	out := &ReportJSON{
		Inputs:  []InputJSON{},
		ByClass: map[string]int{},
	}
	for _, rep := range reports {
		tr, res := rep.Trace, rep.Result
		stacks := res.Stacks
		if stacks == nil {
			// A Result assembled outside the pipeline carries no
			// stacks; one sweep of its trace recovers them.
			stacks = detect.RaceStacks(tr, res.Races)
		}
		in := InputJSON{
			File:    rep.File,
			Events:  tr.EventCount(),
			Entries: tr.Len(),
			Races:   []RaceJSON{},
			Stats:   res.Stats,
			Naive:   len(res.Naive),
		}
		for _, r := range res.Races {
			in.Races = append(in.Races, RaceJSON{
				Class:      r.Class.String(),
				Field:      tr.FieldName(r.Use.Var.Field()),
				Var:        tr.VarName(r.Use.Var),
				UseTask:    tr.TaskName(r.Use.Task),
				UseMethod:  tr.MethodName(r.Use.Method),
				UsePC:      uint32(r.Use.DerefPC),
				UseStack:   detect.FormatStack(tr, stacks[r.Use.DerefIdx]),
				FreeTask:   tr.TaskName(r.Free.Task),
				FreeMethod: tr.MethodName(r.Free.Method),
				FreePC:     uint32(r.Free.PC),
				FreeStack:  detect.FormatStack(tr, stacks[r.Free.Idx]),
			})
			out.ByClass[r.Class.String()]++
		}
		out.Inputs = append(out.Inputs, in)
		out.Events += in.Events
		out.TotalRaces += len(res.Races)
		out.Stats.Add(res.Stats)
	}
	return out
}

// RenderJSON writes the aggregated report as indented JSON — the
// exact bytes `cafa-analyze -json` emits.
func RenderJSON(w io.Writer, reports []*FileReport) error {
	return jsonindent.Encode(w, BuildJSON(reports))
}

// BuildBundle assembles the run's evidence bundle in input order.
// Every report must carry an evidence collector (analysis
// Options.Evidence).
func BuildBundle(reports []*FileReport) *provenance.Bundle {
	b := &provenance.Bundle{Version: provenance.BundleVersion}
	for _, rep := range reports {
		in := rep.Result.Evidence.Bundle(rep.File)
		in.Stats = rep.Result.Stats
		b.Inputs = append(b.Inputs, in)
		b.Stats.Add(rep.Result.Stats)
	}
	return b
}
