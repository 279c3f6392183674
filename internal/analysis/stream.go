// The sweep: Ingest pulls the entries of a Source — trace bytes
// through a stream decoder, or a trace already in memory — and feeds
// each through the validator and every per-entry pass. What survives
// an entry is a windowed frontier of compact records:
//
//   - hb: one reduced node + redOp record per reduced operation
//     (begins/ends/sends/...), never the scalar accesses between them;
//   - lockset: a snapshot only at entries whose held set is non-empty;
//   - detect: use/free/alloc/guard records, the call stacks at uses
//     and frees, and the per-task last-read frontier; a read retires
//     as soon as a newer read of the same object supersedes it or a
//     deref promotes it.
//
// Over trace bytes peak memory is therefore O(reduced nodes +
// accesses-of-interest), not O(trace): the entry slice itself is
// never allocated. Evidence and the naive baseline need the full
// entry list (call walks, Explain paths); under those Options the
// decoder source retains each entry in the header trace, so memory is
// that of a decoded trace and the sweep still runs once. A trace in
// memory already holds its entries, and its source hands them out in
// place.
package analysis

import (
	"io"

	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Sweep observability (internal/obs): entries consumed, and the live
// frontier window (unpromoted pinned reads), sampled periodically and
// at Finish. The retirement counter and stall histogram live in
// internal/detect with the frontier.
var (
	cEntries      = obs.NewCounter("analysis_entries_total")
	gStreamWindow = obs.NewGauge("stream_window_live")
)

// windowSampleEvery is how often (in entries) consume refreshes the
// stream_window_live gauge.
const windowSampleEvery = 4096

// Source is an entry sequence Ingest sweeps: the header trace (task
// and name tables), the entry count, and the entries in trace order.
type Source interface {
	Header() *trace.Trace
	Len() int
	// Next returns the next entry at its final home: a slot of the
	// header trace's Entries, or scratch the next call reuses.
	Next() (*trace.Entry, error)
}

// entries is the Source over a trace already in memory; it hands out
// each &tr.Entries[i] in place.
type entries struct {
	tr *trace.Trace
	i  int
}

func (s *entries) Header() *trace.Trace { return s.tr }
func (s *entries) Len() int             { return len(s.tr.Entries) }

func (s *entries) Next() (*trace.Entry, error) {
	s.i++
	return &s.tr.Entries[s.i-1], nil
}

// decoded is the Source over a stream decoder. Each entry is decoded
// straight into its final home — a new slot of the header trace's
// Entries when retain is set, else one scratch entry — and never
// copied.
type decoded struct {
	dec     *trace.StreamDecoder
	retain  bool
	scratch trace.Entry
}

// Decoded returns the Source over dec. Options.Evidence and
// Options.Naive walk the materialized trace, so under them every
// entry is retained in the header trace (trace.StreamDecoder's
// NextRetained); otherwise each entry is dropped once the passes have
// read it.
func (p *Pipeline) Decoded(dec *trace.StreamDecoder) Source {
	return &decoded{dec: dec, retain: p.opts.Evidence || p.opts.Naive}
}

func (d *decoded) Header() *trace.Trace { return d.dec.Header() }
func (d *decoded) Len() int             { return d.dec.Len() }

func (d *decoded) Next() (*trace.Entry, error) {
	if d.retain {
		return d.dec.NextRetained()
	}
	d.scratch = trace.Entry{}
	return &d.scratch, d.dec.Next(&d.scratch)
}

// Ingest is the one per-entry loop: it pulls every entry from src,
// feeds it through the validator and the per-entry passes, and checks
// the trace-level invariants at the end, all under a "stream.ingest"
// child of sp (nil is fine). Decode failures come back as the
// decoder's *trace.PosError; validation and per-entry analysis faults
// as the first fault in trace order. The returned Analyzer is ready
// for Finish.
func (p *Pipeline) Ingest(src Source, sp *obs.Span) (*Analyzer, error) {
	tr := src.Header()
	a := &Analyzer{
		opts:    &p.opts,
		tr:      tr,
		val:     trace.NewValidator(tr),
		scanner: hb.NewScanner(tr),
		locks:   lockset.NewTracker(tr),
		ext:     detect.NewExtractor(tr, p.opts.DerefSources),
	}
	spIngest := sp.Child("stream.ingest")
	defer spIngest.End()
	// A decoder delivers exactly the declared count or fails.
	for range src.Len() {
		e, err := src.Next()
		if err == nil {
			err = a.consume(e)
		}
		if err != nil {
			cTraceErrors.Inc()
			return nil, err
		}
	}
	if err := a.val.Finish(); err != nil {
		cTraceErrors.Inc()
		return nil, err
	}
	return a, nil
}

// AnalyzeStream decodes rd with trace.NewStreamDecoder and analyzes it
// under the caller's span sp (nil is fine; the caller Ends it):
// decode, validation and the per-entry passes advance together, so a
// long trace is analyzed in O(window) memory unless Options force
// retention. The result is identical to decoding fully and calling
// Analyze.
func (p *Pipeline) AnalyzeStream(rd io.Reader, sp *obs.Span) (*Result, error) {
	dec, err := trace.NewStreamDecoder(rd)
	if err != nil {
		return nil, err
	}
	return p.analyze(p.Decoded(dec), sp)
}
