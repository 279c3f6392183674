package cafa

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// streamRSSThreshold is the streaming-pipeline memory contract: on the
// largest synthetic trace, the heap retained while holding a streaming
// result must stay under half of what the batch path retains. Quiet
// hardware lands far below this; CI can loosen it via STREAM_RSS_MAX
// (a ratio, e.g. "0.6").
const streamRSSThreshold = 0.50

// streamRSSShapes are the measured workloads. The analysis skeleton is
// fixed (same loopers, events, and races) and AccessesPer scales pure
// entry volume — from roughly 10x to 100x the entry count of a
// benchScale app trace — so retained memory tracks trace length, not
// analysis difficulty. That isolates exactly the O(trace) vs O(window)
// claim: batch keeps every entry alive in the Result, streaming keeps
// the window plus the derived graphs.
var streamRSSShapes = []struct {
	name string
	cfg  synth.Config
}{
	{"synth-30k", synth.Config{Chain: 4, EventsPer: 8, FreeThreads: 4, Burst: 8, BurstEvents: 32, AccessesPer: 100}},
	{"synth-300k", synth.Config{Chain: 4, EventsPer: 8, FreeThreads: 4, Burst: 8, BurstEvents: 32, AccessesPer: 1000}},
}

// retainedAfter runs fn, then measures how much heap the values it
// returned keep alive: GC before for a clean baseline, GC after so
// only reachable memory remains, delta of HeapAlloc. Transient
// allocations inside fn are collected by the second GC and do not
// count — this is retained state, the component of peak RSS that a
// long-lived process cannot shed between traces.
func retainedAfter(tb testing.TB, fn func() any) (uint64, any) {
	tb.Helper()
	// Two cycles: one GC only moves sync.Pool contents to the victim
	// cache; the second frees them. Without both, pool memory from an
	// earlier measurement dies inside this one and skews the delta.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	held := fn()
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Keep fn (and so everything it captured — notably the encoded
	// input bytes) reachable until after the second reading. SSA
	// liveness frees a capture's backing array right after its last
	// use inside fn, which would deflate `after` below the baseline.
	runtime.KeepAlive(fn)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0, held
	}
	return after.HeapAlloc - before.HeapAlloc, held
}

// TestStreamRSS is the bounded-memory proof for the streaming
// pipeline: analyzing the same encoded trace, holding the streaming
// Result must retain well under half the heap of holding the batch
// Result, and the gap must widen as the trace grows. Both sides see
// identical races, so the saving is storage, not work skipped.
func TestStreamRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement loop is slow under -short")
	}
	threshold := streamRSSThreshold
	if env := os.Getenv("STREAM_RSS_MAX"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("bad STREAM_RSS_MAX %q: %v", env, err)
		}
		threshold = v
	}

	rows := make([]benchRow, 0, len(streamRSSShapes))
	var ratio float64
	p := analysis.New(analysis.Options{})

	for _, shape := range streamRSSShapes {
		tr := synth.Trace(shape.cfg)
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		entries := tr.Len()
		tr = nil // only the encoded form feeds both sides

		batchB, batchHeld := retainedAfter(t, func() any {
			btr, err := trace.Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Analyze(btr)
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		batchRes := batchHeld.(*analysis.Result)

		streamB, streamHeld := retainedAfter(t, func() any {
			res, err := p.AnalyzeStream(bytes.NewReader(raw), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		streamRes := streamHeld.(*analysis.Result)

		if len(streamRes.Races) != len(batchRes.Races) {
			t.Fatalf("%s: race count diverged: stream %d, batch %d",
				shape.name, len(streamRes.Races), len(batchRes.Races))
		}
		ratio = float64(streamB) / float64(batchB)
		t.Logf("%s: %d entries, batch retains %s, stream retains %s (ratio %.3f)",
			shape.name, entries, fmtBytes(batchB), fmtBytes(streamB), ratio)
		rows = append(rows, benchRow{Name: "stream/" + shape.name, Values: map[string]float64{
			"entries":               float64(entries),
			"encoded_bytes":         float64(len(raw)),
			"batch_retained_bytes":  float64(batchB),
			"stream_retained_bytes": float64(streamB),
			"stream_over_batch":     ratio,
			"races":                 float64(len(streamRes.Races)),
		}})
		runtime.KeepAlive(batchRes)
		runtime.KeepAlive(streamRes)
	}

	// The gate applies to the largest trace, where entry storage
	// dominates both sides' fixed costs.
	last := &rows[len(rows)-1]
	last.Threshold = streamRSSThreshold
	recordBench(t, runtime.GOMAXPROCS(0), rows...)
	if ratio >= threshold {
		t.Errorf("streaming retains %.1f%% of batch on %s, want under %.0f%%",
			ratio*100, last.Name, threshold*100)
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
