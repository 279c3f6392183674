package analysis_test

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/report"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// relabel returns a copy of tr whose tasks carry new IDs: the task
// with the k-th smallest ID gets ids(k, n) of n tasks. Entries,
// targets and loopers follow; names stay, so reports render alike.
func relabel(tr *trace.Trace, ids func(k, n int) trace.TaskID) (*trace.Trace, map[trace.TaskID]trace.TaskID) {
	to := make(map[trace.TaskID]trace.TaskID, len(tr.Tasks))
	for k, ti := range tr.Tasks {
		to[ti.ID] = ids(k, len(tr.Tasks))
	}
	m := func(t trace.TaskID) trace.TaskID {
		if n, ok := to[t]; ok {
			return n
		}
		return t
	}
	out := trace.New()
	for _, ti := range tr.Tasks {
		ti.ID, ti.Looper = m(ti.ID), m(ti.Looper)
		out.DeclareTask(ti)
	}
	out.Fields, out.Methods, out.Queues = tr.Fields, tr.Methods, tr.Queues
	out.Entries = slices.Clone(tr.Entries)
	for i := range out.Entries {
		e := &out.Entries[i]
		e.Task, e.Target = m(e.Task), m(e.Target)
	}
	return out, to
}

// sparseIDs spreads n tasks over the whole ID space, ascending: the
// first two get 1 and 1<<20, the last two 1<<31 and 0xFFFFFFFE.
func sparseIDs(k, n int) trace.TaskID {
	switch k {
	case 0:
		return 1
	case n - 2:
		return 1 << 31
	case n - 1:
		return 0xFFFFFFFE
	}
	return 1<<20 + trace.TaskID(k-1)*97
}

// scrambledIDs is sparseIDs in reverse: ascending ID order no longer
// follows the original order of the tasks.
func scrambledIDs(k, n int) trace.TaskID { return sparseIDs(n-1-k, n) }

func sparseTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	spec, _ := apps.ByName("ZXing")
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{
		"zxing": col.T,
		"synth": synth.Trace(synth.Config{Chain: 3, EventsPer: 4, FreeThreads: 2, Burst: 2, BurstEvents: 8}),
	}
}

// analyzeBoth runs Analyze on tr and AnalyzeStream on its encoding,
// and returns each result with its rendered JSON report.
func analyzeBoth(t *testing.T, tr *trace.Trace) (res [2]*analysis.Result, js [2][]byte) {
	t.Helper()
	p := analysis.New(analysis.Options{})
	var err error
	if res[0], err = p.Analyze(tr); err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if res[1], err = p.AnalyzeStream(&enc, nil); err != nil {
		t.Fatal(err)
	}
	for k, r := range res {
		var b bytes.Buffer
		if err := report.RenderJSON(&b, []*report.FileReport{{File: "t.trace", Trace: r.Trace, Result: r}}); err != nil {
			t.Fatal(err)
		}
		js[k] = b.Bytes()
	}
	return res, js
}

// TestSparseTaskIDsMatchDense relabels dense traces onto sparse and
// huge task IDs and requires the same analysis through Analyze and
// AnalyzeStream: the same races (up to the relabelling), stats and
// rendered report.
func TestSparseTaskIDsMatchDense(t *testing.T) {
	for name, dense := range sparseTraces(t) {
		want, wantJSON := analyzeBoth(t, dense)
		for label, ids := range map[string]func(k, n int) trace.TaskID{"sparse": sparseIDs, "scrambled": scrambledIDs} {
			sparse, to := relabel(dense, ids)
			named := func(id trace.TaskID) bool { s := sparse.Slot(id); return s >= 0 && sparse.Tasks[s].Name != "" }
			if !named(1) || !named(0xFFFFFFFE) {
				t.Fatalf("%s/%s: relabelled trace lacks the extreme IDs", name, label)
			}
			got, gotJSON := analyzeBoth(t, sparse)
			for k, path := range []string{"Analyze", "AnalyzeStream"} {
				w, g := want[k], got[k]
				if len(w.Races) == 0 {
					t.Fatalf("%s: dense trace reports no races", name)
				}
				races := slices.Clone(w.Races)
				for i := range races {
					races[i].Use.Task, races[i].Free.Task = to[races[i].Use.Task], to[races[i].Free.Task]
				}
				if !reflect.DeepEqual(g.Races, races) {
					t.Errorf("%s/%s %s: races differ from the dense trace's", name, label, path)
				}
				if g.Stats != w.Stats || g.GraphStats != w.GraphStats || g.ConvStats != w.ConvStats {
					t.Errorf("%s/%s %s: stats differ:\n  got  %+v %+v %+v\n  want %+v %+v %+v",
						name, label, path, g.Stats, g.GraphStats, g.ConvStats, w.Stats, w.GraphStats, w.ConvStats)
				}
				if !bytes.Equal(gotJSON[k], wantJSON[k]) {
					t.Errorf("%s/%s %s: rendered report differs from the dense trace's", name, label, path)
				}
			}
		}
	}
}

// TestSparseTaskIDsBoundedHeap analyzes a few tasks at huge IDs: what
// the analysis allocates must follow the declared task count, not the
// largest ID (per-task tables indexed by ID would take gigabytes).
func TestSparseTaskIDsBoundedHeap(t *testing.T) {
	dense := synth.Trace(synth.Config{Chain: 1, EventsPer: 2, FreeThreads: 1})
	sparse, _ := relabel(dense, sparseIDs)
	var enc bytes.Buffer
	if err := sparse.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	p := analysis.New(analysis.Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.AnalyzeStream(bytes.NewReader(enc.Bytes()), nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatal("no races: the trace does not exercise the detector")
	}
	// A generous constant plus a per-declared-task allowance.
	limit := uint64(256<<10 + 4<<10*len(sparse.Tasks))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d tasks: %d bytes allocated", len(sparse.Tasks), got)
	if got > limit {
		t.Errorf("analysis of %d tasks at IDs up to %#x allocated %d bytes, want at most %d",
			len(sparse.Tasks), uint32(0xFFFFFFFE), got, limit)
	}
}

// TestStandaloneWrappersRejectUndeclaredTask: hb.Scan, lockset.Compute
// and detect.Detect slot tasks from the header as Ingest does, so an
// entry whose task the header does not declare is an error, not a
// task they slot on the fly.
func TestStandaloneWrappersRejectUndeclaredTask(t *testing.T) {
	tr := synth.Trace(synth.Config{Chain: 1, EventsPer: 2, FreeThreads: 1})
	g, err := hb.Build(tr, hb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *tr
	bad.Entries = slices.Insert(slices.Clone(tr.Entries), 1, trace.Entry{Task: 99, Op: trace.OpBegin})
	const want = "trace: entry 1: task t99 not declared"
	for name, run := range map[string]func() error{
		"hb.Scan":         func() error { _, err := hb.Scan(&bad); return err },
		"lockset.Compute": func() error { _, err := lockset.Compute(&bad); return err },
		"detect.Detect": func() error {
			_, err := detect.Detect(detect.Input{Trace: &bad, Graph: g}, detect.Options{})
			return err
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}
