// Package obs is CAFA's zero-dependency instrumentation layer:
// hierarchical timed spans, a process-wide registry of atomic
// counters/gauges/histograms, and three exporters (Chrome trace-event
// JSON for Perfetto, Prometheus text exposition, a human summary
// table) plus an optional debug HTTP listener mounting /metrics and
// net/http/pprof.
//
// The layer is off by default and costs ~nothing while off: Start
// returns a nil *Span (all Span methods are nil-safe no-ops) and every
// metric mutation is gated on one atomic bool load. Because obs only
// ever observes — no instrumented package reads anything back from it
// — enabling it cannot change analysis results; the differential test
// in internal/analysis proves race reports and stats are
// byte-identical with instrumentation on and off, and the overhead
// test at the repo root (the obs row of BENCH.json) bounds the enabled
// cost.
//
// Span hierarchy maps onto Chrome trace-event tracks: Start and Fork
// allocate a fresh track (concurrent work renders side by side),
// Child inherits its parent's track (serial phases render as nested
// slices, since a child's [start, end) is contained in its parent's).
package obs

import (
	"sync/atomic"
	"time"
)

// enabled gates all instrumentation. Off by default.
var enabled atomic.Bool

// Enable turns instrumentation on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns instrumentation off. Spans already started still
// record on End (their data is real); new Starts return nil.
func Disable() { enabled.Store(false) }

// Enabled reports whether instrumentation is on.
func Enabled() bool { return enabled.Load() }

// epoch anchors span timestamps; sinceEpoch is monotonic.
var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }

// Reset clears recorded spans and zeroes every registered metric
// (registrations persist — package-level metric handles stay valid).
// Intended for tests and for CLIs that run repeated measured phases.
func Reset() {
	resetSpans()
	resetMetrics()
}
