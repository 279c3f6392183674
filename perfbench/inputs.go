package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"cafa/internal/apps"
	"cafa/internal/dvm"
	"cafa/internal/sim"
	"cafa/internal/static"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// input is one encoded trace the benchmark feeds to the analyzer,
// with what its output must contain.
type input struct {
	name    string
	raw     []byte
	entries int
	// races is the race count the output must report.
	races int
	// truth, prog and roots are set on app-model inputs: the planted
	// ground truth, and what the static layer needs to analyze the
	// app's program.
	truth []apps.Planted
	prog  *dvm.Program
	roots map[trace.MethodID]int
	// simTime is how long the simulator took to produce the trace.
	simTime time.Duration
}

// Workload shapes. Each synth shape stresses the layers its workload
// is meant to measure; see README.md for the reasoning.
var (
	// serveShape is one upload: ~5.5k entries and ~990 races, so that
	// evidence and rendering dominate a job.
	serveShape = synth.Config{Chain: 8, EventsPer: 16, FreeThreads: 4, Burst: 8, BurstEvents: 120}
)

// expectedRaces is the race count a synth trace implies: every chain
// level races on min(EventsPer, FreeThreads) pointers, and every burst
// event races with one freeing thread.
func expectedRaces(c synth.Config) int {
	if c.FreeThreads <= 0 {
		return 0
	}
	return c.Chain*min(c.EventsPer, c.FreeThreads) + c.Burst*c.BurstEvents
}

// newRand returns the generator every input of one workload is drawn
// from; stream distinguishes independent draws under one seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// synthInput encodes one synth trace. tag, when non-empty, names the
// first queue, which changes the encoded bytes but not the analysis.
func synthInput(name string, c synth.Config, tag string) (input, error) {
	tr := synth.Trace(c)
	if tag != "" {
		tr.Queues[1] = tag
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return input{}, fmt.Errorf("encode %s: %w", name, err)
	}
	return input{name: name, raw: buf.Bytes(), entries: tr.Len(), races: expectedRaces(c)}, nil
}

// uploadInputs returns n distinct serve uploads. A
// queue-name tag drawn from the seed makes every upload's bytes
// distinct, so only the deliberate repeats hit the service's result
// cache. The shape is fixed, so the server's retained heap after a
// fixed sequence of uploads does not depend on the seed.
func uploadInputs(seed uint64, n int) ([]input, error) {
	rng := newRand(seed, 3)
	out := make([]input, n)
	for i := range out {
		tag := fmt.Sprintf("upload-%d-%016x", i, rng.Uint64())
		in, err := synthInput(fmt.Sprintf("u%d.trace", i), serveShape, tag)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// suiteInputs simulates the ten app models at scale 1 (the paper's
// event counts) with the scheduler seeded by the workload seed, and
// encodes each trace. span, when non-nil, wraps each simulation.
func suiteInputs(seed uint64, span func(name string, fn func() error) error) ([]input, error) {
	if span == nil {
		span = func(_ string, fn func() error) error { return fn() }
	}
	out := make([]input, 0, len(apps.Registry))
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: seed}, 1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := span("sim.run", b.Sys.Run); err != nil {
			return nil, fmt.Errorf("simulate %s: %w", spec.Name, err)
		}
		simTime := time.Since(start)
		var buf bytes.Buffer
		if err := col.T.Encode(&buf); err != nil {
			return nil, fmt.Errorf("encode %s: %w", spec.Name, err)
		}
		out = append(out, input{
			name:    spec.Name + ".trace",
			raw:     buf.Bytes(),
			entries: col.T.Len(),
			races:   spec.Paper.Reported,
			truth:   b.Truth,
			prog:    b.Prog,
			roots:   static.RootsFromNames(b.Prog, b.Sys.Roots()),
			simTime: simTime,
		})
	}
	return out, nil
}
