// Package cafa is the public API of CAFA-Go, a from-scratch
// reproduction of "Race Detection for Event-Driven Mobile
// Applications" (Yu et al., PLDI 2014).
//
// CAFA finds use-after-free races in event-driven (Android-style)
// programs. The pipeline has two halves:
//
//   - Online: an application runs on the simulated event-driven
//     runtime (looper threads, event queues with delays and
//     sendAtFront, regular threads, monitors, Binder-like RPC) with
//     the instrumented bytecode interpreter emitting a trace.
//   - Offline: the analyzer builds the paper's event-driven causality
//     model over the trace and reports use/free pairs left unordered
//     by it, pruned by the if-guard, intra-event-allocation, and
//     lockset filters.
//
// Quick start:
//
//	prog := cafa.MustAssemble(src)          // Dalvik-like assembly
//	col := cafa.NewCollector()
//	sys := cafa.NewSystem(prog, cafa.SystemConfig{Tracer: col})
//	main := sys.AddLooper("main", 0)
//	... wire threads, inject events ...
//	sys.Run()
//	rep, _ := cafa.Analyze(col.T, cafa.AnalyzeOptions{})
//	for _, r := range rep.Races { fmt.Println(rep.Describe(r)) }
//
// The subpackages under internal implement the pieces: trace
// (operation vocabulary and codecs), dvm (bytecode VM), asm
// (assembler), sim (event-driven runtime), hb (causality model),
// lockset, detect (use-free detector and baselines), vclock
// (FastTrack-style comparison), replay (adversarial validation), apps
// (the ten evaluated application models), and report (Table 1 /
// Figure 8 harnesses).
package cafa

import (
	"io"

	"cafa/internal/analysis"
	"cafa/internal/asm"
	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/hb"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// Re-exported core types. The aliases make the public surface usable
// without importing internal packages.
type (
	// Trace is a recorded execution.
	Trace = trace.Trace
	// Entry is one trace operation.
	Entry = trace.Entry
	// Op enumerates trace operations.
	Op = trace.Op
	// TaskID identifies an event or thread.
	TaskID = trace.TaskID
	// Tracer receives trace entries during execution.
	Tracer = trace.Tracer
	// Collector is an in-memory Tracer.
	Collector = trace.Collector
	// DeviceSink is a Tracer that serializes entries immediately (the
	// logger-device model used for overhead measurements).
	DeviceSink = trace.DeviceSink

	// Program is a compiled bytecode unit.
	Program = dvm.Program
	// Value is a VM value (int, object reference, or method handle).
	Value = dvm.Value
	// Object is a heap object.
	Object = dvm.Object

	// System is a simulated device running one or more apps.
	System = sim.System
	// SystemConfig tunes a System.
	SystemConfig = sim.Config
	// Looper is a looper thread with its event queue.
	Looper = sim.Looper
	// Crash records an uncaught exception (a manifested
	// use-after-free).
	Crash = sim.Crash

	// Graph is the happens-before graph of a trace.
	Graph = hb.Graph
	// GraphOptions selects the causality model variant.
	GraphOptions = hb.Options

	// Race is a reported use-free race.
	Race = detect.Race
	// Class is a race class (intra-thread / inter-thread /
	// conventional).
	Class = detect.Class
	// DetectOptions carries the detector's ablation switches.
	DetectOptions = detect.Options
	// DetectStats counts detector pipeline stages.
	DetectStats = detect.Stats
	// NaiveRace is a low-level conflicting-access race from the
	// baseline detector.
	NaiveRace = detect.NaiveRace
)

// Race classes (Table 1 columns a, b, c).
const (
	ClassIntraThread  = detect.ClassIntraThread
	ClassInterThread  = detect.ClassInterThread
	ClassConventional = detect.ClassConventional
)

// Assemble compiles Dalvik-like assembly source into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble for static sources; it panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// NewCollector returns an in-memory trace collector.
func NewCollector() *Collector { return trace.NewCollector() }

// NewDeviceSink returns a serializing trace sink.
func NewDeviceSink() *DeviceSink { return trace.NewDeviceSink() }

// NewSystem builds a simulated device over a program.
func NewSystem(p *Program, cfg SystemConfig) *System { return sim.NewSystem(p, cfg) }

// Null returns the null object reference.
func Null() Value { return dvm.Null() }

// Int returns an integer VM value (also used for handles).
func Int(v int64) Value { return dvm.Int64(v) }

// Obj returns an object-reference VM value.
func Obj(o *Object) Value { return dvm.Obj(o.ID) }

// DecodeTrace reads a binary trace (see Trace.Encode).
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// BuildGraph constructs the happens-before graph of a trace under the
// event-driven causality model (or the conventional baseline when
// opts.Conventional is set). The conventional graph computes its
// reachability per queried entry on demand, so its queries stay
// total; Graph.Project batches the entries known in advance into one
// sweep.
func BuildGraph(tr *Trace, opts GraphOptions) (*Graph, error) { return hb.Build(tr, opts) }

// Report is the result of analyzing one trace.
type Report struct {
	// Races are the reported use-free races, deduplicated by code
	// site.
	Races []Race
	// Stats counts the detector's pipeline stages.
	Stats DetectStats
	// GraphStats summarizes causality-model construction.
	GraphStats hb.Stats
	// Naive holds the low-level baseline races when requested.
	Naive []NaiveRace

	tr *Trace
}

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// Detect carries the detector's ablation switches.
	Detect DetectOptions
	// Naive additionally runs the low-level conflicting-access
	// baseline (the paper's §4.1 motivation).
	Naive bool
}

// Analyze runs the full offline pipeline on a trace: both causality
// models, lock sets, and the use-free race detector. The trace is
// validated in the same sweep; an ill-formed one returns its first
// structural fault in trace order (the checks of Trace.Validate).
func Analyze(tr *Trace, opts AnalyzeOptions) (*Report, error) {
	res, err := analysis.Analyze(tr, analysis.Options{Detect: opts.Detect, Naive: opts.Naive})
	if err != nil {
		return nil, err
	}
	return &Report{
		Races:      res.Races,
		Stats:      res.Stats,
		GraphStats: res.GraphStats,
		Naive:      res.Naive,
		tr:         tr,
	}, nil
}

// Describe renders a race against the report's trace symbol tables.
func (r *Report) Describe(race Race) string {
	return race.Describe(r.tr)
}
