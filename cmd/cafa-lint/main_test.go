package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden runs cafa-lint and compares the output against a committed
// golden file (regenerate with `go test ./cmd/cafa-lint -update`).
func golden(t *testing.T, name string, args []string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output diverges from %s (run with -update to regenerate)\n--- got\n%s", path, buf.String())
	}
	return buf.String()
}

// TestGoldenZXingCrossCheck locks the cross-check report for ZXing
// against the committed fixture trace (recorded at scale 32, seed 1 —
// the program text is scale/seed-independent, so a fresh build pairs
// with it). The annotations are the acceptance property: every
// dynamically reported real pair is static-confirmed, the Type III
// plant is static-unmatched, and the benign plants carry their
// statically-guarded / alloc-safe classifications.
func TestGoldenZXingCrossCheck(t *testing.T) {
	out := golden(t, "golden_zxing.txt",
		[]string{"-app", "ZXing", "-trace", "../cafa-analyze/testdata/zxing.trace"})
	for _, want := range []string{
		"[static-confirmed]",
		"[static-unmatched] ptrB_f3x0",
		"[statically-guarded]",
		"[alloc-safe]",
		"coverage gaps (static pairs not dynamically reported): 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "[static-unmatched] ptr_b") {
		t.Error("a planted harmful pair came back static-unmatched")
	}
}

// TestGoldenToDoListCrossCheck is the second cross-check model:
// ToDoList's class-(a) races sit inside try/catch handlers (§6.2), so
// the pairs exercise the try-handler CFG edges end to end.
func TestGoldenToDoListCrossCheck(t *testing.T) {
	out := golden(t, "golden_todolist.txt",
		[]string{"-app", "ToDoList", "-trace", "../cafa-analyze/testdata/todolist.trace"})
	for _, want := range []string{
		"[static-confirmed]",
		"coverage gaps (static pairs not dynamically reported): 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "static-unmatched") {
		t.Error("ToDoList plants no Type III scenario; nothing should be unmatched")
	}
}

// TestGoldenZXingJSON pins the machine format byte-for-byte: the
// CheckedRace and Gap slices are sorted by SiteKey, so the JSON is
// deterministic across runs — two fresh runs must agree with each
// other and with the committed golden.
func TestGoldenZXingJSON(t *testing.T) {
	args := []string{"-app", "ZXing", "-trace", "../cafa-analyze/testdata/zxing.trace", "-json"}
	out := golden(t, "golden_zxing.json", args)
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Error("JSON output is not deterministic across runs")
	}
	for _, want := range []string{`"ordered": true`, `"orderWitness"`, `"verdict": "static-ordered"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

// TestJSONIncludesVerdicts spot-checks the machine format.
func TestJSONIncludesVerdicts(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-app", "ZXing", "-trace", "../cafa-analyze/testdata/zxing.trace", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"verdict": "static-confirmed"`, `"verdict": "static-unmatched"`, `"guarded": true`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

// TestStaticOnlyAllApps runs the trace-free mode over every model —
// the pure pre-pass must not need a dynamic run.
func TestStaticOnlyAllApps(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "=== ") != 10 {
		t.Errorf("want 10 app sections, got %d", strings.Count(buf.String(), "=== "))
	}
	if strings.Contains(buf.String(), "cross-check") {
		t.Error("static-only mode must not print a cross-check section")
	}
}

// TestMetricsFlag checks -metrics: the report itself is unchanged and
// a metrics table with the static-pass counters follows it.
func TestMetricsFlag(t *testing.T) {
	var plain, withMetrics bytes.Buffer
	if err := run([]string{"-app", "ZXing"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-app", "ZXing", "-metrics"}, &withMetrics); err != nil {
		t.Fatal(err)
	}
	out := withMetrics.String()
	if !strings.HasPrefix(out, plain.String()) {
		t.Error("-metrics changed the report body")
	}
	tail := strings.TrimPrefix(out, plain.String())
	if !strings.Contains(tail, "--- metrics ---") || !strings.Contains(tail, "static_analyze_runs_total") {
		t.Errorf("missing metrics table after report:\n%s", tail)
	}
	if strings.Contains(plain.String(), "--- metrics ---") {
		t.Error("metrics table leaked into the default output")
	}
}

// TestBadFlags covers the argument contract.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "NoSuchApp"},
		{"-trace", "x.trace"}, // -trace with -app all
		{"-trace", "x.trace", "-app", "ZXing", "-dynamic"},
		{"positional"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}
