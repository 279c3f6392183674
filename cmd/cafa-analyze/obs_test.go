package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// writeAppFixtures records all ten application models (scale 32, seed
// 1) into dir as binary .trace files and returns their paths in app
// registry order.
func writeAppFixtures(t *testing.T, dir string) []string {
	t.Helper()
	paths := make([]string, 0, len(apps.Registry))
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, strings.ToLower(spec.Name)+".trace")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.T.Encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// elapsedRE strips the wall-clock column from progress lines.
var elapsedRE = regexp.MustCompile(`elapsed [^)]+\)`)

// TestProgressDeterministicSerial locks the -progress stream shape:
// under -j 1 the lines arrive in input order with ascending N/M
// counters, and two runs are identical up to the elapsed column.
func TestProgressDeterministicSerial(t *testing.T) {
	inputs := []string{"testdata/zxing.trace", "testdata/todolist.trace"}
	capture := func() string {
		var out, errBuf bytes.Buffer
		if err := run(append([]string{"-progress", "-j", "1"}, inputs...), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		return elapsedRE.ReplaceAllString(errBuf.String(), "elapsed X)")
	}
	first := capture()
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != len(inputs) {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), len(inputs), first)
	}
	for i, line := range lines {
		want := regexp.MustCompile(fmt.Sprintf(
			`^progress: %d/%d %s: races=\d+ \(total \d+, elapsed X\)$`,
			i+1, len(inputs), regexp.QuoteMeta(inputs[i])))
		if !want.MatchString(line) {
			t.Errorf("line %d = %q, want match %v", i, line, want)
		}
	}
	if second := capture(); second != first {
		t.Errorf("-j 1 progress stream not deterministic:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestProgressParallelCompletes checks the stream under parallelism:
// every input gets exactly one line and the done counter ends at M/M.
func TestProgressParallelCompletes(t *testing.T) {
	inputs := []string{"testdata/zxing.trace", "testdata/todolist.trace"}
	var out, errBuf bytes.Buffer
	if err := run(append([]string{"-progress", "-j", "4"}, inputs...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(errBuf.String()), "\n")
	if len(lines) != len(inputs) {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), len(inputs), errBuf.String())
	}
	if !strings.Contains(lines[len(lines)-1], fmt.Sprintf("progress: %d/%d ", len(inputs), len(inputs))) {
		t.Errorf("final line lacks %d/%d: %q", len(inputs), len(inputs), lines[len(lines)-1])
	}
	for _, in := range inputs {
		if !strings.Contains(errBuf.String(), in+": races=") {
			t.Errorf("no progress line for %s:\n%s", in, errBuf.String())
		}
	}
}

// TestErrorReportingAndExitCodes covers the two failure classes: a
// missing input is an I/O error (exit 2), a malformed input —
// undecodable, or decodable but failing validation — is a decode
// error (exit 1); both name the failing path.
func TestErrorReportingAndExitCodes(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.trace")
	err := run([]string{missing}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("missing input: want error")
	}
	if !strings.Contains(err.Error(), missing) {
		t.Errorf("missing-input error does not name the path: %v", err)
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("missing input: exit code %d, want 2", got)
	}

	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("CAFA-TEXT 1\nnot a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{garbage}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("garbage input: want error")
	}
	if !strings.Contains(err.Error(), garbage) || !strings.Contains(err.Error(), "decode") {
		t.Errorf("decode error should name the path and the phase: %v", err)
	}
	if got := exitCode(err); got != 1 {
		t.Errorf("garbage input: exit code %d, want 1", got)
	}

	// A decodable trace that fails validation is malformed input too.
	invalid := filepath.Join(dir, "invalid.trace")
	bad := trace.New()
	bad.DeclareTask(trace.TaskInfo{ID: 1, Kind: trace.KindThread, Name: "T"})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin})
	bad.Append(trace.Entry{Task: 1, Op: trace.OpBegin, Time: 1})
	var buf bytes.Buffer
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(invalid, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{invalid}, io.Discard, io.Discard)
	if err == nil || exitCode(err) != 1 || !strings.Contains(err.Error(), invalid) {
		t.Errorf("invalid trace: err %v (exit %d), want exit 1 naming the path", err, exitCode(err))
	}

	// Batch mode: a good file plus a bad one still names the bad one.
	err = run([]string{"testdata/zxing.trace", garbage}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), garbage) {
		t.Errorf("batch error should name the failing input: %v", err)
	}

	var ie *inputError
	if !errors.As(err, &ie) || ie.class != classDecode {
		t.Errorf("batch decode failure should be an inputError{classDecode}, got %v", err)
	}
}

// chromeTrace mirrors the trace-event JSON for shape assertions.
type chromeTrace struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceOutShapeTenApps is the acceptance check: a batch run over
// the ten app fixtures with -j 4 -trace-out produces a valid Chrome
// trace-event file whose per-trace "analyze" spans sit on distinct
// tracks (concurrent rows in Perfetto) and nest the pipeline's pass
// spans.
func TestTraceOutShapeTenApps(t *testing.T) {
	dir := t.TempDir()
	writeAppFixtures(t, dir)
	out := filepath.Join(dir, "obs-trace.json")
	var buf bytes.Buffer
	if err := run([]string{"-j", "4", "-trace-out", out, dir}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	analyzeTracks := map[int]string{}
	names := map[string]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q in %+v", ev.Ph, ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 || ev.Pid != 1 || ev.Tid <= 0 {
			t.Fatalf("malformed event %+v", ev)
		}
		names[ev.Name]++
		if ev.Name == "analyze" {
			if prev, dup := analyzeTracks[ev.Tid]; dup {
				t.Errorf("per-trace spans share track %d: %q and %q", ev.Tid, prev, ev.Args["file"])
			}
			analyzeTracks[ev.Tid] = ev.Args["file"]
			if ev.Args["file"] == "" {
				t.Errorf("analyze span missing file attr: %+v", ev)
			}
		}
	}
	if got := names["analyze"]; got != len(apps.Registry) {
		t.Errorf("got %d analyze spans, want %d", got, len(apps.Registry))
	}
	// The golden shape: every phase of the pipeline appears, ten times.
	for _, phase := range []string{"stream.ingest", "hb.prescan", "hb.graph", "hb.conventional", "detect"} {
		if names[phase] != len(apps.Registry) {
			t.Errorf("span %q appears %d times, want %d", phase, names[phase], len(apps.Registry))
		}
	}
}

// TestMetricsSummaryAppended checks -metrics appends the summary
// table with live pipeline counters after the report.
func TestMetricsSummaryAppended(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-metrics", "testdata/zxing.trace"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	idx := strings.Index(out, "--- metrics ---")
	if idx < 0 {
		t.Fatalf("no metrics table in output:\n%s", out)
	}
	if !strings.Contains(out, "use-free races:") || idx < strings.Index(out, "use-free races:") {
		t.Error("metrics table should follow the race report")
	}
	for _, metric := range []string{"analysis_traces_analyzed_total", "detect_candidates_total", "hb_builds_total"} {
		if !strings.Contains(out[idx:], metric) {
			t.Errorf("metrics table missing %s:\n%s", metric, out[idx:])
		}
	}
}

// TestDebugAddrServes checks the -debug-addr listener comes up and
// does not disturb the report. The listener lives only for the run,
// so we just verify startup on a free port succeeds and the report is
// unchanged versus a plain run.
func TestDebugAddrServes(t *testing.T) {
	var plain, withDebug bytes.Buffer
	if err := run([]string{"-json", "testdata/zxing.trace"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	var stderrBuf bytes.Buffer
	if err := run([]string{"-json", "-debug-addr", "127.0.0.1:0", "testdata/zxing.trace"}, &withDebug, &stderrBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), withDebug.Bytes()) {
		t.Error("-debug-addr changed the report")
	}
	if !strings.Contains(stderrBuf.String(), "debug listener on http://127.0.0.1:") {
		t.Errorf("no listener banner on stderr: %q", stderrBuf.String())
	}
}
