// The ingest path for trace bytes: Ingest decodes, validates and
// analyzes in one forward sweep, so both front ends that read traces
// (cafa-analyze and cafa-serve) run one pass over the bytes, not a
// decode, a Validate and an Analyze. Analyze remains the entry point
// for traces already in memory.
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
// happens-before closure is built at finish over the reduced nodes by
// the same finish step batch Analyze runs, so results are
// bit-identical.
//
// Evidence and the naive baseline need the full entry list (call
// walks, Explain paths); when Options request them the analyzer
// retains each decoded entry in the header trace, preallocated from
// the declared count, so memory is that of a decoded trace and the
// sweep still runs once.
package analysis

import (
	"io"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Streaming observability (internal/obs): traces/entries consumed via
// the streaming path, and the live frontier window (unpromoted pinned
// reads), sampled periodically and at FinishSpanned. The retirement
// counter and stall histogram live in internal/detect with the
// frontier.
var (
	cStreamTraces  = obs.NewCounter("analysis_stream_traces_total")
	cStreamEntries = obs.NewCounter("analysis_stream_entries_total")
	gStreamWindow  = obs.NewGauge("stream_window_live")
)

// windowSampleEvery is how often (in entries) consume refreshes the
// stream_window_live gauge.
const windowSampleEvery = 4096

// StreamAnalyzer is one trace's analysis between ingest and finish:
// Pipeline.Ingest advances it over every entry and validates the
// whole trace, FinishSpanned joins the passes into a Result.
type StreamAnalyzer struct {
	a   *analyzer
	val *trace.Validator
}

// newStream returns a StreamAnalyzer over a header trace (task and
// name tables).
func (p *Pipeline) newStream(hdr *trace.Trace) *StreamAnalyzer {
	return &StreamAnalyzer{a: p.newAnalyzer(hdr), val: trace.NewValidator(hdr)}
}

// consume validates one entry and advances every pass by it. Entries
// must arrive in trace order; *e is not kept.
func (sa *StreamAnalyzer) consume(e *trace.Entry) error {
	if err := sa.val.Entry(e); err != nil {
		return err
	}
	if err := sa.a.consume(e); err != nil {
		return err
	}
	if sa.a.n%windowSampleEvery == 0 {
		gStreamWindow.Set(int64(sa.a.ext.Live()))
	}
	return nil
}

// FinishSpanned runs the finish step batch Analyze runs — both
// causality models over the scanned frontier and the detector over
// the streamed extraction — under a caller-owned span (nil is fine);
// the caller Ends sp. The Result is identical to batch Analyze on the
// materialized trace.
func (sa *StreamAnalyzer) FinishSpanned(sp *obs.Span) (*Result, error) {
	gStreamWindow.Set(int64(sa.a.ext.Live()))
	out, err := sa.a.finish(sp)
	if err != nil {
		return nil, err
	}
	cStreamTraces.Inc()
	cStreamEntries.Add(int64(sa.a.n))
	return out, nil
}

// Ingest is the one decode→analyze loop: it pulls every entry from
// dec, feeds it through the validator and the per-entry passes, and
// checks the trace-level invariants at the end, all under a
// "stream.ingest" child of sp (nil is fine). Decode failures come
// back as dec's *trace.PosError; validation and per-entry analysis
// faults as the first fault in trace order. The returned analyzer is
// ready for FinishSpanned.
//
// Options.Evidence and Options.Naive walk the materialized trace, so
// they retain every entry in the header trace, preallocated from the
// declared count (capped as trace.Decode caps it against a hostile
// header); otherwise each entry is dropped once the passes have read
// it. Either way an entry is decoded straight into its final home and
// never copied.
func (p *Pipeline) Ingest(dec *trace.StreamDecoder, sp *obs.Span) (*StreamAnalyzer, error) {
	tr := dec.Header()
	sa := p.newStream(tr)
	retain := p.opts.Evidence || p.opts.Naive
	if retain {
		tr.Entries = make([]trace.Entry, 0, min(dec.Len(), 1<<20))
	}
	spIngest := sp.Child("stream.ingest")
	defer spIngest.End()
	var scratch trace.Entry
	// The decoder delivers exactly the declared count or fails.
	for range dec.Len() {
		e := &scratch
		if retain {
			tr.Entries = append(tr.Entries, trace.Entry{})
			e = &tr.Entries[len(tr.Entries)-1]
		} else {
			scratch = trace.Entry{}
		}
		err := dec.Next(e)
		if err == nil {
			err = sa.consume(e)
		}
		if err != nil {
			cTraceErrors.Inc()
			return nil, err
		}
	}
	if err := sa.val.Finish(); err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	return sa, nil
}

// AnalyzeStream decodes rd with trace.NewStreamDecoder and runs the
// pipeline over it: decode, validate, and analyze advance together
// per entry, so a long trace is analyzed in O(window) memory (unless
// Options force retention). The result is identical to decoding fully
// and calling Analyze.
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
	sa, err := p.Ingest(dec, sp)
	if err != nil {
		return nil, err
	}
	return sa.FinishSpanned(sp)
}
