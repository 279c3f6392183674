// Streaming mode: the same driver advanced one entry at a time as
// entries are decoded.
//
// A StreamAnalyzer is the analyzer core (pipeline.go) plus the
// structural trace.Validator and optional entry retention. Each
// decoded entry passes the validator, then every per-entry pass —
// hb.Scanner, lockset.Tracker, detect.Extractor — and is discarded.
// What survives is a windowed frontier of compact records:
//
//   - hb: one reduced node + redOp record per reduced operation
//     (begins/ends/sends/...), never the scalar accesses between them;
//   - lockset: a snapshot only at entries whose held set is non-empty;
//   - detect: use/free/alloc/guard records, the call stacks at uses
//     and frees, and the per-task last-read frontier; a read retires
//     as soon as a newer read of the same object supersedes it or a
//     deref promotes it.
//
// Peak memory is therefore O(reduced nodes + accesses-of-interest),
// not O(trace): the entry slice itself is never allocated. The
// happens-before closure is built at Finish over the reduced nodes by
// the same finish step batch Analyze runs, so results are
// bit-identical; only the entry stream is never retained.
//
// Evidence and the naive baseline need the full entry list (call
// walks, Explain paths); when Options request them the analyzer
// retains decoded entries in the header trace and everything works
// unchanged — the streaming win is then overlap (analyze during
// ingest), not bounded memory.
package analysis

import (
	"fmt"
	"io"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Streaming observability (internal/obs): traces/entries consumed via
// the streaming path, and the live frontier window (unpromoted pinned
// reads), sampled periodically and at Finish. The retirement counter
// and stall histogram live in internal/detect with the frontier.
var (
	cStreamTraces  = obs.NewCounter("analysis_stream_traces_total")
	cStreamEntries = obs.NewCounter("analysis_stream_entries_total")
	gStreamWindow  = obs.NewGauge("stream_window_live")
)

// windowSampleEvery is how often (in entries) Consume refreshes the
// stream_window_live gauge.
const windowSampleEvery = 4096

// StreamAnalyzer runs the pipeline over a stream of entries. Create
// one per trace with Pipeline.NewStream, Consume every entry, then
// Finish.
type StreamAnalyzer struct {
	a   *analyzer
	val *trace.Validator

	// retain keeps decoded entries in the header trace: required by
	// Evidence (provenance walks the trace) and Naive. Without them
	// the entry stream is discarded and memory stays O(window).
	retain bool
}

// NewStream returns a StreamAnalyzer over a header trace (task and
// name tables; Entries empty). Options.Evidence and Options.Naive
// force entry retention — the analysis still streams, but memory is
// O(trace) again because provenance needs the materialized entries.
func (p *Pipeline) NewStream(hdr *trace.Trace) *StreamAnalyzer {
	return &StreamAnalyzer{
		a:      p.newAnalyzer(hdr, nil),
		val:    trace.NewValidator(hdr),
		retain: p.opts.Evidence || p.opts.Naive,
	}
}

// Retaining reports whether the analyzer keeps decoded entries (see
// NewStream).
func (sa *StreamAnalyzer) Retaining() bool { return sa.retain }

// Entries returns how many entries have been consumed so far.
func (sa *StreamAnalyzer) Entries() int { return sa.a.n }

// Consume validates one entry and advances every pass by it. Entries
// must arrive in trace order; the entry is not retained unless
// Retaining.
func (sa *StreamAnalyzer) Consume(e trace.Entry) error {
	if err := sa.val.Entry(&e); err != nil {
		return err
	}
	if err := sa.a.consume(&e); err != nil {
		return err
	}
	if sa.retain {
		sa.a.tr.Entries = append(sa.a.tr.Entries, e)
	}
	if sa.a.n%windowSampleEvery == 0 {
		gStreamWindow.Set(int64(sa.a.ext.Live()))
	}
	return nil
}

// Finish validates trace-level invariants, then runs the finish step
// batch Analyze runs: both causality models over the scanned frontier
// and the detector over the streamed extraction. The Result is
// identical to batch Analyze on the materialized trace.
func (sa *StreamAnalyzer) Finish() (*Result, error) {
	sp := obs.Start("pipeline.analyze.stream")
	defer sp.End()
	return sa.FinishSpanned(sp)
}

// FinishSpanned is Finish under a caller-owned span (nil is fine);
// the caller Ends sp.
func (sa *StreamAnalyzer) FinishSpanned(sp *obs.Span) (*Result, error) {
	n := sa.a.n
	gStreamWindow.Set(int64(sa.a.ext.Live()))
	if err := sa.val.Finish(); err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	if hdr := sa.a.tr; hdr.StreamLen != 0 && n != hdr.StreamLen {
		cTraceErrors.Inc()
		return nil, fmt.Errorf("analysis: stream ended after %d of %d declared entries", n, hdr.StreamLen)
	}
	out, err := sa.a.finish(sp)
	if err != nil {
		return nil, err
	}
	cStreamTraces.Inc()
	cStreamEntries.Add(int64(n))
	return out, nil
}

// AnalyzeStream decodes rd with trace.NewStreamDecoder and runs the
// streaming pipeline over it: decode, validate, and analyze advance
// together per entry, so a long trace is analyzed in O(window) memory
// (unless Options force retention). The result is identical to
// decoding fully and calling Analyze.
func (p *Pipeline) AnalyzeStream(rd io.Reader) (*Result, error) {
	sp := obs.Start("pipeline.analyze.stream")
	defer sp.End()
	return p.AnalyzeStreamSpanned(rd, sp)
}

// AnalyzeStreamSpanned is AnalyzeStream under a caller-owned span;
// the caller Ends sp.
func (p *Pipeline) AnalyzeStreamSpanned(rd io.Reader, sp *obs.Span) (*Result, error) {
	dec, err := trace.NewStreamDecoder(rd)
	if err != nil {
		return nil, err
	}
	sa := p.NewStream(dec.Header())
	spIngest := sp.Child("stream.ingest")
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			spIngest.End()
			cTraceErrors.Inc()
			return nil, err
		}
		if err := sa.Consume(e); err != nil {
			spIngest.End()
			cTraceErrors.Inc()
			return nil, err
		}
	}
	spIngest.End()
	return sa.FinishSpanned(sp)
}
