package cafa

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"cafa/internal/trace"
)

// overheadPairs is the number of off/on pairs an overhead gate times.
const overheadPairs = 21

// overheadProcs is the GOMAXPROCS an overhead gate measures at.
const overheadProcs = 1

// overheadGate is a wall-clock contract on the ten-app analysis suite:
// analyzing it with a feature on may cost at most threshold times the
// analysis with it off.
type overheadGate struct {
	name      string  // log label
	threshold float64 // bound on the median per-pair on/off ratio
	env       string  // variable that overrides threshold on noisy hosts
	traces    []*trace.Trace
	// off and on each analyze one trace and return the wall-clock of
	// that analysis alone.
	off, on func(*trace.Trace) time.Duration
}

// overheadResult is the distribution of per-pair on/off ratios, with
// the median suite time of each side.
type overheadResult struct {
	q1, median, q3 float64
	off, on        time.Duration
}

// measure runs one warm-up pass, then overheadPairs pairs. A pair
// times both sides over the whole suite, trace by trace: each trace
// is analyzed off and on back to back, the order flipping from trace
// to trace and from pair to pair, so drift on a shared host (a
// neighbour's burst, another test binary) lands on both sides of a
// pair alike and cancels in its ratio. The median over pairs discards
// the pairs a burst still splits.
//
// The runs use one P (overheadProcs). With two, every stop-the-world
// GC phase waits for the second vCPU, and on a shared virtual machine
// the host often has it descheduled: 10–40 ms stalls on a 35 ms
// suite, which no statistic over a few dozen runs sees through. The
// features gated cost CPU time, which one P measures.
func (g overheadGate) measure() overheadResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(overheadProcs))
	for _, tr := range g.traces {
		g.off(tr)
		g.on(tr)
	}
	ratios := make([]float64, overheadPairs)
	offs := make([]time.Duration, overheadPairs)
	ons := make([]time.Duration, overheadPairs)
	for i := range ratios {
		// Start each pair from a collected heap.
		runtime.GC()
		for k, tr := range g.traces {
			if (i+k)%2 == 1 {
				ons[i] += g.on(tr)
				offs[i] += g.off(tr)
			} else {
				offs[i] += g.off(tr)
				ons[i] += g.on(tr)
			}
		}
		ratios[i] = float64(ons[i]) / float64(offs[i])
	}
	slices.Sort(ratios)
	slices.Sort(offs)
	slices.Sort(ons)
	return overheadResult{
		q1:     quantile(ratios, 0.25),
		median: quantile(ratios, 0.5),
		q3:     quantile(ratios, 0.75),
		off:    offs[len(offs)/2],
		on:     ons[len(ons)/2],
	}
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// run measures the gate, logs the ratio quartiles, records the gate's
// row under -update-bench, and fails t when the median ratio reaches
// the threshold (or its override from g.env).
func (g overheadGate) run(t *testing.T) {
	threshold := g.threshold
	if env := os.Getenv(g.env); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("bad %s %q: %v", g.env, env, err)
		}
		threshold = v
	}
	r := g.measure()
	t.Logf("%s overhead: median ratio %.4f (q1 %.4f, q3 %.4f) over %d pairs; median off=%v on=%v (threshold %.2f)",
		g.name, r.median, r.q1, r.q3, overheadPairs, r.off, r.on, threshold)
	// Values: the median per-pair on/off ratio and its quartiles over
	// the ten app traces (benchScale, seed 1), and the median suite
	// time of each side.
	recordBench(t, overheadProcs, benchRow{
		Name:      g.name,
		Threshold: g.threshold,
		Values: map[string]float64{
			"apps":        float64(len(g.traces)),
			"scale":       benchScale,
			"pairs":       overheadPairs,
			"disabled_ns": float64(r.off.Nanoseconds()),
			"enabled_ns":  float64(r.on.Nanoseconds()),
			"overhead":    r.median,
			"overhead_q1": r.q1,
			"overhead_q3": r.q3,
		},
	})
	if r.median >= threshold {
		t.Errorf("%s overhead %.4f exceeds threshold %.2f (q1 %.4f, q3 %.4f)",
			g.name, r.median, threshold, r.q1, r.q3)
	}
}

// TestOverheadGatesCatchPlantedSlowdown: with a 10% slowdown planted
// on the enabled side, each gate's statistic must reach its contract
// threshold — the gates resolve the regression they exist to catch.
func TestOverheadGatesCatchPlantedSlowdown(t *testing.T) {
	traces := suiteTraces(t)
	for _, g := range []overheadGate{obsGate(t, traces), evidenceGate(t, traces)} {
		on := g.on
		g.on = func(tr *trace.Trace) time.Duration {
			d := on(tr)
			// Spin rather than sleep: the planted cost is CPU time,
			// like any real instrumentation cost.
			t0 := time.Now()
			for time.Since(t0) < d/10 {
			}
			return d + time.Since(t0)
		}
		r := g.measure()
		t.Logf("%s gate, planted 10%% slowdown: median ratio %.4f (q1 %.4f, q3 %.4f)", g.name, r.median, r.q1, r.q3)
		if r.median < g.threshold {
			t.Errorf("%s gate passed a planted 10%% slowdown: median ratio %.4f below threshold %.2f",
				g.name, r.median, g.threshold)
		}
	}
}
