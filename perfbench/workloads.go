package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"cafa/internal/service/client"
)

// A run sets its workload up at least minSetups times, and again until
// the set-ups have taken setupBudget or maxSetups is reached; setup_s is
// their median. A short set-up thus gets enough repeats for a steady
// median, and the suite's of over a second only three.
const (
	minSetups   = 3
	maxSetups   = 101
	setupBudget = 3 * time.Second
)

// config is one benchmark run.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// traceOut receives the traced run's spans as Chrome trace events.
	traceOut io.Writer
	log      io.Writer
}

// outcome is what a run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// diag is recorded with the results but gates nothing.
	diag map[string]any
	log  io.Writer
}

// fail counts a failed op and logs the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(o.log, "perfbench: op failed: %v\n", err)
	}
}

// suiteSetup simulates the ten apps. Traced, it also records the
// simulator and the static passes the suite's programs would need.
func suiteSetup(seed uint64, t *tracer) ([]input, error) {
	if t == nil {
		return suiteInputs(seed, nil)
	}
	t.begin(true)
	defer t.end()
	inputs, err := suiteInputs(seed, t.span)
	if err != nil {
		return nil, err
	}
	for i := range inputs {
		t.add("sim.entries", float64(inputs[i].entries))
		if err := t.tracedStatic(&inputs[i]); err != nil {
			return nil, err
		}
	}
	return inputs, nil
}

// timedSetup sets the workload up repeatedly and returns the last
// set-up's result with the median set-up time.
func timedSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var v T
	var secs []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if i > 0 && discard != nil {
			discard(v)
		}
		var zero T
		v = zero
		runtime.GC()
		start := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(start)
		spent += d
		secs = append(secs, d.Seconds())
	}
	return v, median(secs), nil
}

// runSuite is the suite workload: each op is one cafa-analyze -j 1
// -json pass over the ten app traces.
func runSuite(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, diag: map[string]any{}, log: cfg.log}
	if cfg.traced {
		return runSuiteTraced(cfg, o)
	}
	inputs, setupS, err := timedSetup(func() ([]input, error) { return suiteSetup(cfg.seed, nil) }, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	entries := 0
	for _, in := range inputs {
		entries += in.entries
	}
	outputs := map[string][]byte{}
	o.attempted++ // the discarded warm-up op
	if _, err := cliOp(inputs, outputs); err != nil {
		o.fail(err)
	}
	var opMs []float64
	var retained uint64
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline); {
		o.attempted++
		s, err := cliOp(inputs, outputs)
		if err != nil {
			o.fail(err)
			continue
		}
		opMs = append(opMs, ms(s.dur))
		retained = max(retained, s.retained)
	}
	if len(opMs) == 0 {
		return o, nil
	}
	p50 := median(opMs)
	o.metrics["setup_s"] = setupS
	o.metrics["p50_ms"] = p50
	o.metrics["p75_ms"] = quantile(opMs, 0.75)
	o.metrics["mentries_s"] = float64(entries) / 1e6 / (p50 / 1e3)
	// One op at a time, so the op rate is the inverse of the op time;
	// the median keeps a few slow ops from moving it.
	o.metrics["jobs_s"] = 1e3 / p50
	o.metrics["retained_heap_mb"] = float64(retained) / mib
	o.diag["ops"] = len(opMs)
	o.diag["entries_per_op"] = entries
	o.diag["op_ms_debug"] = opMs
	o.diag["tail_percentile"] = tailPercentile(len(opMs))
	return o, nil
}

// runSuiteTraced alternates untraced and traced ops on the same inputs,
// so the traced op time and the untraced op time it is compared with
// come from the same run.
func runSuiteTraced(cfg config, o *outcome) (*outcome, error) {
	t := newTracer()
	inputs, err := suiteSetup(cfg.seed, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	outputs := map[string][]byte{}
	tracedOp := func() error {
		runtime.GC()
		t.begin(false)
		defer t.end()
		return t.span("op", func() error {
			for i := range inputs {
				in := &inputs[i]
				if err := t.span("input", func() error {
					res, out, err := t.tracedBatch(in, false)
					if err != nil {
						return err
					}
					return checkOutput(in, res, out, outputs)
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	o.attempted += 2 // the discarded warm-up ops
	if _, err := cliOp(inputs, outputs); err != nil {
		o.fail(err)
	}
	if err := tracedOp(); err != nil {
		o.fail(err)
	}
	t.records = t.records[:len(t.records)-1]
	var untraced []sample
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline); {
		o.attempted += 2
		if s, err := cliOp(inputs, outputs); err != nil {
			o.fail(err)
		} else {
			untraced = append(untraced, s)
		}
		if err := tracedOp(); err != nil {
			o.fail(err)
		}
	}
	o.metrics = layerMetrics(t, untraced)
	o.diag["ops"] = len(untraced)
	return o, t.close(cfg.traceOut)
}

// serveSetup is the serve workload's uploads and running server.
type serveSetup struct {
	uploads []input
	rig     *rig
}

// runServe drives an in-process cafa-serve with one closed-loop client,
// which waits for each job's report before it submits again. With one
// client per CPU, a job's latency depended on whether another client's
// job overlapped it, and that share moved from run to run; with one,
// every analyzed job runs alone on the server.
func runServe(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, diag: map[string]any{}, log: cfg.log}
	// Enough distinct uploads for over twice the measured rate of about
	// 3.5 new uploads a second (three round trips in four). A server fast
	// enough to use them up ends the run early, with every metric still
	// taken over the ops it made.
	n := int(cfg.seconds.Seconds())*8 + 8
	st, setupS, err := timedSetup(func() (serveSetup, error) {
		ups, err := uploadInputs(cfg.seed, n)
		if err != nil {
			return serveSetup{}, err
		}
		r, err := startRig()
		return serveSetup{uploads: ups, rig: r}, err
	}, func(st serveSetup) {
		if err := st.rig.close(); err != nil {
			fmt.Fprintf(cfg.log, "perfbench: stop server: %v\n", err)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s := newSubmitter(st.rig.base, st.uploads)
	var runErr error
	if cfg.traced {
		runErr = serveTraced(s, st.rig, cfg, o)
	} else {
		serveLoop(s, cfg, o)
		o.metrics["setup_s"] = setupS
	}
	s.close()
	if err := st.rig.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	st.rig = nil // let the run's jobs go before the heap is measured
	if runErr != nil || cfg.traced {
		return o, runErr
	}
	// A single measurement moved in steps of up to 2 MiB from run to
	// run, and the first of a run reads about 4 MiB below the next two,
	// which agree to a few KiB; the median of three is one of those.
	var held []float64
	for i := 0; i < 3; i++ {
		h, err := serveHeap(st.uploads, o)
		if err != nil {
			return nil, err
		}
		held = append(held, float64(h)/mib)
	}
	o.metrics["retained_heap_mb"] = median(held)
	o.diag["retained_heap_mb_each"] = held
	return o, nil
}

// serveLoop makes one discarded warm-up round trip, then loops until
// the deadline.
func serveLoop(s *submitter, cfg config, o *outcome) {
	o.attempted++
	if _, _, _, _, err := s.op(nil); err != nil {
		o.fail(err)
	}
	var opMs []float64
	entries, cached := 0, 0
	start := time.Now()
	for deadline := start.Add(cfg.seconds); time.Now().Before(deadline); {
		d, up, hit, ok, err := s.op(nil)
		if !ok {
			break
		}
		o.attempted++
		if err != nil {
			o.fail(err)
			continue
		}
		opMs = append(opMs, ms(d))
		entries += up.entries
		if hit {
			cached++
		}
	}
	wall := time.Since(start)
	if len(opMs) == 0 {
		return
	}
	p50 := median(opMs)
	o.metrics["p50_ms"] = p50
	o.metrics["p75_ms"] = quantile(opMs, 0.75)
	o.metrics["mentries_s"] = float64(entries) / float64(len(opMs)) / 1e6 / (p50 / 1e3)
	o.metrics["jobs_s"] = float64(len(opMs)) / wall.Seconds()
	o.diag["ops"] = len(opMs)
	o.diag["cached_ops"] = cached
	o.diag["op_ms_debug"] = opMs
	o.diag["tail_percentile"] = tailPercentile(len(opMs))
}

// serveHeapSubmissions is the fixed submission sequence the retained
// heap is measured after: six new uploads and two repeats.
const serveHeapSubmissions = 8

// serveHeap measures the heap a fresh server holds, its result cache
// included, after a fixed sequence of submissions, so the figure does
// not depend on how many jobs a timed run completed.
func serveHeap(uploads []input, o *outcome) (uint64, error) {
	base := collected().HeapAlloc
	r, err := startRig()
	if err != nil {
		return 0, err
	}
	s := newSubmitter(r.base, uploads)
	for i := 0; i < serveHeapSubmissions; i++ {
		o.attempted++
		if _, _, _, _, err := s.op(nil); err != nil {
			o.fail(err)
		}
	}
	// Buffers the server parks in sync.Pools survive one collection;
	// the second frees them, so they do not count as held.
	runtime.GC()
	held := collected().HeapAlloc
	s.close()
	if err := r.close(); err != nil {
		return 0, fmt.Errorf("stop server: %w", err)
	}
	if held < base {
		return 0, nil
	}
	return held - base, nil
}

// serveTraced alternates blocks of four untraced round trips with
// blocks of four traced ones, so both see the same share of repeated
// uploads. A traced op times the client's submit, wait and fetch calls,
// then, when the server ran the analysis, replays the server's layers
// in-process one at a time on the same upload. Only round trips the
// server analyzed enter the op-level figures, traced or not; a cached
// one runs none of the analysis layers.
func serveTraced(s *submitter, r *rig, cfg config, o *outcome) error {
	t := newTracer()
	rejected := 0
	count := func(err error) {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			rejected++
		}
		o.fail(err)
	}
	o.attempted++ // the discarded warm-up op
	if _, _, _, _, err := s.op(nil); err != nil {
		count(err)
	}
	var untraced []sample
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline); {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, _, cached, ok, err := s.op(nil)
		runtime.ReadMemStats(&m1)
		if !ok {
			break
		}
		o.attempted++
		if err != nil {
			count(err)
		} else if !cached {
			untraced = append(untraced, sample{dur: d, alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs})
		}
		if len(s.sent)%8 != 4 {
			continue
		}
		for i := 0; i < 4; i++ {
			runtime.GC()
			t.begin(false)
			ran, cached := false, false
			err = t.span("op", func() error {
				_, up, hit, ok, err := s.op(t.span)
				ran, cached = ok, hit
				if !ok || err != nil || hit {
					return err
				}
				return t.span("replay", func() error {
					res, _, err := t.tracedBatch(up, true)
					if err == nil && len(res.Races) != up.races {
						err = fmt.Errorf("%s: replay found %d races, want %d", up.name, len(res.Races), up.races)
					}
					return err
				})
			})
			t.end()
			if !ran || cached {
				t.records = t.records[:len(t.records)-1]
			}
			if !ran {
				break
			}
			o.attempted++
			if err != nil {
				count(err)
			}
		}
	}
	o.metrics = layerMetrics(t, untraced)
	cs := r.srv.CacheStats()
	if n := cs.Hits + cs.Misses; n > 0 {
		o.metrics["service.cache_hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	o.metrics["service.rejected"] = float64(rejected)
	o.diag["ops"] = len(untraced)
	return t.close(cfg.traceOut)
}
