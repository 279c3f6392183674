package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cafa/internal/obs"
)

// tracer records a span around each call the benchmark makes into a
// layer, as internal/obs spans carrying the span's id, its parent's id
// and the op's id. It keeps them in memory, computes each layer's self
// time per op, and writes every span as Chrome trace events at the end.
// It also records the allocation deltas around each call and counts
// the layers report.
type tracer struct {
	nextID int
	stack  []openSpan
	mem    map[int]memDelta

	op      int
	cur     *opRecord
	records []*opRecord
	gc0     runtime.MemStats

	mu     sync.Mutex // guards spans: obs calls subscribers from any goroutine
	spans  []obs.SpanData
	cancel func()
}

type openSpan struct {
	id int
	sp *obs.Span
}

// memDelta is what one call allocated.
type memDelta struct {
	bytes, mallocs uint64
}

// opRecord is one traced op, or the traced set-up, by span name.
type opRecord struct {
	setup  bool
	total  time.Duration // the root spans' durations
	self   map[string]time.Duration
	alloc  map[string]memDelta
	counts map[string]float64

	gcCycles uint32
	gcPause  time.Duration
}

// glueSpans group the benchmark's own work: the op itself, one input
// within it, and the serve workload's in-process layer replay.
var glueSpans = map[string]bool{"op": true, "input": true, "replay": true}

func newTracer() *tracer {
	obs.Reset()
	t := &tracer{mem: make(map[int]memDelta)}
	t.cancel = obs.Subscribe(func(d obs.SpanData) {
		if d.Attr("op") == "" {
			return // a span the program itself emitted
		}
		t.mu.Lock()
		t.spans = append(t.spans, d)
		t.mu.Unlock()
	})
	return t
}

// begin starts a traced op (or the traced set-up). Spans record only
// between begin and end, so untraced ops in between run with obs off.
func (t *tracer) begin(setup bool) {
	obs.Enable()
	t.op++
	t.cur = &opRecord{
		setup:  setup,
		self:   make(map[string]time.Duration),
		alloc:  make(map[string]memDelta),
		counts: make(map[string]float64),
	}
	runtime.ReadMemStats(&t.gc0)
}

// end closes the current op and folds its spans into its record.
func (t *tracer) end() {
	obs.Disable()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec := t.cur
	rec.gcCycles = (ms.NumGC - ms.NumForcedGC) - (t.gc0.NumGC - t.gc0.NumForcedGC)
	rec.gcPause = time.Duration(ms.PauseTotalNs - t.gc0.PauseTotalNs)

	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	ivs := make([]interval, len(spans))
	for i, d := range spans {
		ivs[i] = interval{id: atoi(d.Attr("id")), parent: atoi(d.Attr("parent")), start: d.Start, end: d.Start + d.Dur}
	}
	self := selfTimes(ivs)
	for i, d := range spans {
		id := ivs[i].id
		rec.self[d.Name] += self[id]
		m := t.mem[id]
		a := rec.alloc[d.Name]
		rec.alloc[d.Name] = memDelta{a.bytes + m.bytes, a.mallocs + m.mallocs}
		delete(t.mem, id)
		if ivs[i].parent == 0 {
			rec.total += d.Dur
		}
	}
	t.records = append(t.records, rec)
	t.cur = nil
}

// span runs fn inside a span named after the layer it calls into.
// The allocation reads happen outside the span, so their cost lands in
// the parent's self time, which is the benchmark's glue.
func (t *tracer) span(name string, fn func() error) error {
	t.nextID++
	id := t.nextID
	attrs := []obs.Attr{obs.Int("id", id), obs.Int("op", t.op)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sp *obs.Span
	if n := len(t.stack); n > 0 {
		sp = t.stack[n-1].sp.Child(name, append(attrs, obs.Int("parent", t.stack[n-1].id))...)
	} else {
		sp = obs.Start(name, attrs...)
	}
	t.stack = append(t.stack, openSpan{id: id, sp: sp})
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	sp.End()
	runtime.ReadMemStats(&m1)
	t.mem[id] = memDelta{m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs}
	return err
}

// add accumulates a count the layers report into the current op.
func (t *tracer) add(name string, v float64) { t.cur.counts[name] += v }

// peak keeps the largest value of a count within the current op.
func (t *tracer) peak(name string, v float64) {
	t.cur.counts[name] = max(t.cur.counts[name], v)
}

// close stops recording and writes every recorded span, the program's
// own included, as Chrome trace-event JSON.
func (t *tracer) close(w io.Writer) error {
	t.cancel()
	if err := obs.WriteTraceEvents(w); err != nil {
		return fmt.Errorf("write trace events: %w", err)
	}
	return nil
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // absent attributes read as 0, the root's parent
	return n
}
