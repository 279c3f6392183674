package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// encodeBoth returns the binary and text encodings of tr.
func encodeBoth(t testing.TB, tr *trace.Trace) (bin, txt []byte) {
	t.Helper()
	var b, x bytes.Buffer
	if err := tr.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeText(&x); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), x.Bytes()
}

// assertStreamMatchesBatch runs the streaming pipeline over both
// encodings of tr and requires bit-identical results versus batch
// Analyze, including the call stacks at every race.
func assertStreamMatchesBatch(t *testing.T, tr *trace.Trace, opts Options) {
	t.Helper()
	want, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	bin, txt := encodeBoth(t, tr)
	for name, enc := range map[string][]byte{"binary": bin, "text": txt} {
		p := New(opts)
		got, err := p.AnalyzeStream(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Races, want.Races) {
			t.Errorf("%s: races differ:\n  stream: %+v\n  batch:  %+v", name, got.Races, want.Races)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: detect stats differ: stream %+v, batch %+v", name, got.Stats, want.Stats)
		}
		if got.GraphStats != want.GraphStats {
			t.Errorf("%s: graph stats differ: stream %+v, batch %+v", name, got.GraphStats, want.GraphStats)
		}
		if got.ConvStats != want.ConvStats {
			t.Errorf("%s: conventional stats differ: stream %+v, batch %+v", name, got.ConvStats, want.ConvStats)
		}
		if !reflect.DeepEqual(got.Naive, want.Naive) {
			t.Errorf("%s: naive baseline differs", name)
		}
		if got.Trace.Len() != tr.Len() {
			t.Errorf("%s: Len() = %d, want %d", name, got.Trace.Len(), tr.Len())
		}
		// Report rendering queries the stack at every race's use
		// deref and free.
		for _, r := range want.Races {
			for _, idx := range []int{r.Use.DerefIdx, r.Free.Idx} {
				if _, ok := got.Stacks[idx]; !ok {
					t.Errorf("%s: no stack for idx %d", name, idx)
				}
			}
		}
		if !reflect.DeepEqual(got.Stacks, want.Stacks) {
			t.Errorf("%s: stacks differ:\n  stream: %v\n  batch:  %v", name, got.Stacks, want.Stacks)
		}
	}
}

// TestStreamMatchesBatchOnApps: streaming analysis over both codecs
// is bit-identical to batch analysis on every app scenario.
func TestStreamMatchesBatchOnApps(t *testing.T) {
	for _, spec := range apps.Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			assertStreamMatchesBatch(t, appTrace(t, spec), Options{})
		})
	}
}

// TestStreamMatchesBatchOnSynth covers the synthetic shapes the app
// models keep small: chained fixpoints, wide bursts, lock traffic.
func TestStreamMatchesBatchOnSynth(t *testing.T) {
	for _, cfg := range []synth.Config{
		{Chain: 1, EventsPer: 1},
		{Chain: 4, EventsPer: 8, FreeThreads: 4},
		{Chain: 3, EventsPer: 6, FreeThreads: 3, Burst: 4, BurstEvents: 24},
	} {
		assertStreamMatchesBatch(t, synth.Trace(cfg), Options{})
	}
}

// TestStreamRetainsForEvidenceAndNaive: Evidence/Naive force entry
// retention, and the retained trace supports provenance identically;
// without them the entry stream is discarded.
func TestStreamRetainsForEvidenceAndNaive(t *testing.T) {
	tr := synth.Trace(synth.Config{Chain: 3, EventsPer: 4, FreeThreads: 3})
	bin, _ := encodeBoth(t, tr)
	for _, opts := range []Options{{Naive: true}, {Evidence: true}, {}} {
		got, err := New(opts).AnalyzeStream(bytes.NewReader(bin), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Races, want.Races) {
			t.Errorf("opts %+v: races differ", opts)
		}
		if !reflect.DeepEqual(got.Naive, want.Naive) {
			t.Errorf("opts %+v: naive differs", opts)
		}
		if opts.Evidence {
			if got.Evidence == nil {
				t.Fatal("no evidence collector")
			}
			a := got.Evidence.Evidence()
			b := want.Evidence.Evidence()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("evidence records differ:\n  stream: %+v\n  batch:  %+v", a, b)
			}
		}
		wantLen := len(tr.Entries)
		if !opts.Evidence && !opts.Naive {
			wantLen = 0
		}
		if len(got.Trace.Entries) != wantLen {
			t.Errorf("opts %+v: retained %d entries, want %d", opts, len(got.Trace.Entries), wantLen)
		}
		if got.Trace.Len() != len(tr.Entries) {
			t.Errorf("opts %+v: Len() = %d, want %d", opts, got.Trace.Len(), len(tr.Entries))
		}
	}
}

// TestStreamTruncationDetected: a stream that ends before the declared
// entry count is an error, not a silent partial result, in both
// codecs.
func TestStreamTruncationDetected(t *testing.T) {
	tr := synth.Trace(synth.Config{Chain: 2, EventsPer: 3, FreeThreads: 2})
	bin, txt := encodeBoth(t, tr)
	for name, enc := range map[string][]byte{"binary": bin, "text": txt} {
		cut := enc[:len(enc)-len(enc)/8]
		if _, err := New(Options{}).AnalyzeStream(bytes.NewReader(cut), nil); err == nil {
			t.Errorf("%s: want error for truncated stream", name)
		}
	}
}

// TestStreamMatchesBatchErrors: Analyze and AnalyzeStream over both
// encodings report the same error for a malformed trace — the first
// fault in trace order. In the first case a lockset double acquire at
// entry 2 precedes a duplicate begin, so all must name the lockset
// fault, not the later hb one. The others are faults only the
// validator catches, so every path must run it.
func TestStreamMatchesBatchErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []trace.Entry
		want    string
	}{
		{
			name: "lockset before hb",
			entries: []trace.Entry{
				{Task: 1, Op: trace.OpBegin},
				{Task: 1, Op: trace.OpLock, Lock: 5, Time: 1},
				{Task: 1, Op: trace.OpLock, Lock: 5, Time: 2},
				{Task: 1, Op: trace.OpBegin, Time: 3},
				{Task: 1, Op: trace.OpUnlock, Lock: 5, Time: 4},
				{Task: 1, Op: trace.OpEnd, Time: 5},
			},
			want: "lockset: entry 2: lock l5 acquired twice by t1",
		},
		{
			name: "time goes backwards",
			entries: []trace.Entry{
				{Task: 1, Op: trace.OpBegin, Time: 5},
				{Task: 1, Op: trace.OpRead, Var: 3, Time: 4},
				{Task: 1, Op: trace.OpEnd, Time: 6},
			},
			want: "trace: entry 1 (rd(t1, x3) @4): time goes backwards (4 < 5)",
		},
		{
			name: "undeclared task",
			entries: []trace.Entry{
				{Task: 1, Op: trace.OpBegin},
				{Task: 1, Op: trace.OpEnd, Time: 1},
				{Task: 2, Op: trace.OpBegin, Time: 2},
				{Task: 2, Op: trace.OpEnd, Time: 3},
			},
			want: "trace: entry 2 (begin(t2) @2): task t2 not declared",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "T"})
			tr.Entries = tc.entries
			if _, err := Analyze(tr, Options{}); err == nil || err.Error() != tc.want {
				t.Errorf("in memory: err = %v, want %q", err, tc.want)
			}
			bin, txt := encodeBoth(t, tr)
			for name, enc := range map[string][]byte{"binary": bin, "text": txt} {
				if _, err := New(Options{}).AnalyzeStream(bytes.NewReader(enc), nil); err == nil || err.Error() != tc.want {
					t.Errorf("%s stream: err = %v, want %q", name, err, tc.want)
				}
			}
		})
	}
}

// TestStreamConsumeScalarAllocFree: consuming a scalar access must not
// allocate. The padding between reduced operations is most of a long
// trace, so a per-entry allocation there (e.g. the entry escaping
// through an error path) costs heap proportional to the
// stream, not to the retained frontier.
func TestStreamConsumeScalarAllocFree(t *testing.T) {
	tr := trace.New()
	tr.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "main"})
	tr.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
	a, err := New(Options{}).Ingest(&entries{tr: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var consumeErr error
	allocs := testing.AllocsPerRun(1000, func() {
		for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
			if err := a.consume(&trace.Entry{Task: 1, Op: op, Var: 3}); err != nil {
				consumeErr = err
			}
		}
	})
	if consumeErr != nil {
		t.Fatal(consumeErr)
	}
	if allocs != 0 {
		t.Fatalf("Consume allocates %.1f times per two scalar entries; want 0", allocs)
	}
}
