package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"cafa/internal/synth"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {8, 0}, {19, 0}, {20, 50}, {37, 50}, {38, 75},
		{91, 75}, {92, 90}, {181, 90}, {182, 95}, {901, 95}, {902, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule agrees with quantile: at n = 38 the 75th percentile lies
	// between the 28th and 29th order statistics (0-based 27.75), so the
	// ten largest samples are beyond it; at 37 only nine are.
	xs := make([]float64, 38)
	for i := range xs {
		xs[i] = float64(i)
	}
	beyond := 0
	for _, x := range xs {
		if x > quantile(xs, 0.75) {
			beyond++
		}
	}
	if beyond != 10 || samplesBeyond(38, 75) != 10 || samplesBeyond(37, 75) != 9 {
		t.Errorf("38 samples: %d beyond p75 by quantile, %d by samplesBeyond", beyond, samplesBeyond(38, 75))
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}

func TestSelfTimesWithOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []interval{
		{id: 1, start: ms(0), end: ms(100)},
		{id: 2, parent: 1, start: ms(10), end: ms(40)},
		{id: 3, parent: 1, start: ms(30), end: ms(60)},  // overlaps 2
		{id: 4, parent: 1, start: ms(90), end: ms(120)}, // sticks out of 1
		{id: 5, parent: 2, start: ms(15), end: ms(20)},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(5)}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimesSumToRootForATree(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []interval{
		{id: 1, start: ms(0), end: ms(50)},
		{id: 2, parent: 1, start: ms(5), end: ms(20)},
		{id: 3, parent: 2, start: ms(6), end: ms(9)},
		{id: 4, parent: 1, start: ms(20), end: ms(49)},
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
		sum += d
	}
	if sum != ms(50) {
		t.Errorf("self times sum to %v, want the root's 50ms", sum)
	}
}

func TestExpectedRacesMatchesSynth(t *testing.T) {
	for _, c := range []synth.Config{
		{Chain: 2, EventsPer: 3, FreeThreads: 2, Burst: 2, BurstEvents: 3},
		{Chain: 3, EventsPer: 2, FreeThreads: 4, Burst: 1, BurstEvents: 5},
		{Chain: 4, EventsPer: 4, FreeThreads: 4, AccessesPer: 3},
		{Chain: 2, EventsPer: 4, FreeThreads: 0, Burst: 2, BurstEvents: 3},
		{Chain: 5, EventsPer: 6, FreeThreads: 3, Burst: 3, BurstEvents: 7},
	} {
		in, err := synthInput("t.trace", c, "")
		if err != nil {
			t.Fatal(err)
		}
		res, out, err := analyzeBatch(&in)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if len(res.Races) != expectedRaces(c) || reportedRaces(out) != expectedRaces(c) {
			t.Errorf("%+v: %d races (%d in the report), formula says %d",
				c, len(res.Races), reportedRaces(out), expectedRaces(c))
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) []byte{
		"serve": func(seed uint64) []byte {
			ups, err := uploadInputs(seed, 2)
			must(t, err)
			return append(append([]byte(nil), ups[0].raw...), ups[1].raw...)
		},
		"suite": func(seed uint64) []byte {
			ins, err := suiteInputs(seed, nil)
			must(t, err)
			var all []byte
			for _, in := range ins {
				all = append(all, in.raw...)
			}
			return all
		},
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
	ups, err := uploadInputs(7, 3)
	must(t, err)
	if bytes.Equal(ups[0].raw, ups[1].raw) || bytes.Equal(ups[1].raw, ups[2].raw) {
		t.Error("serve uploads repeat without a deliberate repeat")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// tracedOnce runs one traced op over in and returns its record.
func tracedOnce(t *testing.T, tr *tracer, in *input, fn func(*input) error) *opRecord {
	t.Helper()
	tr.begin(false)
	err := tr.span("op", func() error { return tr.span("input", func() error { return fn(in) }) })
	tr.end()
	must(t, err)
	return tr.records[len(tr.records)-1]
}

func TestTracedSelfTimesSumToTheOp(t *testing.T) {
	in, err := synthInput("t.trace", synth.Config{Chain: 3, EventsPer: 4, FreeThreads: 2, Burst: 2, BurstEvents: 5, AccessesPer: 3}, "")
	must(t, err)
	tr := newTracer()
	defer func() { must(t, tr.close(&bytes.Buffer{})) }()
	ops := map[string]func(*input) error{
		"batch":    func(in *input) error { _, _, err := tr.tracedBatch(in, false); return err },
		"evidence": func(in *input) error { _, _, err := tr.tracedBatch(in, true); return err },
	}
	for name, op := range ops {
		rec := tracedOnce(t, tr, &in, op)
		var sum time.Duration
		for span, d := range rec.self {
			if d < 0 {
				t.Errorf("%s: %s self time %v < 0", name, span, d)
			}
			sum += d
		}
		if diff := rec.total - sum; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: self times sum to %v, op took %v", name, sum, rec.total)
		}
		for _, span := range []string{"trace.decode", "hb.graph", "detect", "report.render"} {
			if _, ok := rec.self[span]; !ok {
				t.Errorf("%s: no %s span", name, span)
			}
		}
		if rec.counts["detect.races"] != float64(in.races) {
			t.Errorf("%s: traced op counted %v races, want %d", name, rec.counts["detect.races"], in.races)
		}
	}
}

func TestServeRepeatsComeBackCached(t *testing.T) {
	ups := make([]input, 6)
	for i := range ups {
		in, err := synthInput("u.trace", synth.Config{Chain: 2, EventsPer: 3, FreeThreads: 2, Burst: 1, BurstEvents: 4}, string(rune('a'+i)))
		must(t, err)
		ups[i] = in
	}
	r, err := startRig()
	must(t, err)
	s := newSubmitter(r.base, ups)
	cached := 0
	for i := 0; i < 8; i++ {
		_, _, hit, ok, err := s.op(nil)
		if !ok || err != nil {
			t.Fatalf("submission %d: ok=%v err=%v", i, ok, err)
		}
		if hit != (i%4 == 3) {
			t.Errorf("submission %d: cached=%v", i, hit)
		}
		if hit {
			cached++
		}
	}
	s.close()
	must(t, r.close())
	if cached != 2 {
		t.Errorf("%d cached answers, want 2", cached)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	must(t, err)
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	must(t, json.Unmarshal(raw, &b))
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
