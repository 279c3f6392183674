package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/provenance"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// writeSuiteTraces records all ten app models (scale 32, seed 1 — the
// CI report-regression recipe) into dir as <app>.trace files.
func writeSuiteTraces(t *testing.T, dir string) {
	t.Helper()
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, strings.ToLower(spec.Name)+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		if err := col.T.Encode(f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// loadNormalizedBundle reads an evidence bundle and strips run-local
// directories from the File fields so bundles recorded in different
// temp dirs compare equal.
func loadNormalizedBundle(t *testing.T, path string) *provenance.Bundle {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := provenance.ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Inputs {
		b.Inputs[i].File = filepath.Base(b.Inputs[i].File)
	}
	return b
}

// TestGoldenSuiteEvidence locks the evidence bundle over the full
// ten-app suite (scale 32, seed 1) against the committed golden —
// the same bundle CI's report-regression job diffs against.
// Regenerate with `go test ./cmd/cafa-analyze -update`.
func TestGoldenSuiteEvidence(t *testing.T) {
	dir := t.TempDir()
	writeSuiteTraces(t, dir)
	outPath := filepath.Join(dir, "evidence.json")
	if err := run([]string{"-evidence-out", outPath, dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := loadNormalizedBundle(t, outPath)

	golden := filepath.Join("testdata", "golden_suite_evidence.json")
	if *update {
		var buf bytes.Buffer
		if err := got.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := loadNormalizedBundle(t, golden)
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.Marshal(got.Stats)
		wantJSON, _ := json.Marshal(want.Stats)
		t.Errorf("evidence bundle diverges from %s (run with -update to regenerate)\ngot stats  %s\nwant stats %s",
			golden, gotJSON, wantJSON)
	}
	// The decoded comparison above cannot see layout; pin WriteJSON's
	// bytes too (indentation, key order, escaping, trailing newline).
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var gotBytes bytes.Buffer
	if err := got.WriteJSON(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes) {
		t.Errorf("WriteJSON of the suite bundle (%d B) is not byte-identical to %s (%d B)",
			gotBytes.Len(), golden, len(wantBytes))
	}

	// The acceptance bar for the bundle itself: every dynamic prune
	// stage except static-guard carries at least one witness (the
	// static prune needs the whole-program pass, which cafa-analyze
	// does not run; its witness is covered by the root
	// TestEvidenceAllStagesWitnessed fixture).
	stages := map[string]int{}
	races := 0
	for _, in := range got.Inputs {
		races += len(in.Races)
		for _, p := range in.Pruned {
			stages[p.Stage]++
		}
	}
	if races == 0 {
		t.Fatal("suite bundle reports no races")
	}
	for _, stage := range []string{"ordered", "lockset", "if-guard", "intra-alloc", "dedup"} {
		if stages[stage] == 0 {
			t.Errorf("suite bundle has no %s prune witness (have %v)", stage, stages)
		}
	}
}

// TestDiffCleanAndRegression drives -diff both ways: the suite
// against its own golden baseline must exit clean, and a run
// containing races absent from a baseline must fail with the
// regression exit code and name the new sites.
func TestDiffCleanAndRegression(t *testing.T) {
	// Baseline: evidence of the ToDoList fixture alone.
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run([]string{"-evidence-out", base, "testdata/todolist.trace"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Same inputs, same baseline: no new, no fixed, exit clean.
	var clean bytes.Buffer
	if err := run([]string{"-diff", base, "testdata/todolist.trace"}, &clean, io.Discard); err != nil {
		t.Fatalf("self-diff must pass, got %v", err)
	}
	if !strings.Contains(clean.String(), "new=0 fixed=0") {
		t.Errorf("self-diff output = %q", clean.String())
	}

	// Adding the ZXing fixture introduces race sites the baseline has
	// never seen: the diff must fail with the regression exit code and
	// print each new site.
	var buf bytes.Buffer
	err := run([]string{"-diff", base, "testdata/zxing.trace", "testdata/todolist.trace"}, &buf, io.Discard)
	if err == nil {
		t.Fatal("new races vs baseline must fail the run")
	}
	var re *regressionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want regressionError", err)
	}
	if exitCode(err) != 3 {
		t.Errorf("exit code = %d, want 3", exitCode(err))
	}
	out := buf.String()
	if !strings.Contains(out, "evidence diff vs "+base+": new=") {
		t.Errorf("diff summary missing: %q", out)
	}
	if !strings.Contains(out, "  new: ptr_b0:") {
		t.Errorf("new sites must be listed: %q", out)
	}

	// A missing or malformed baseline keeps the usual exit classes.
	err = run([]string{"-diff", filepath.Join(dir, "nope.json"), "testdata/todolist.trace"}, io.Discard, io.Discard)
	if exitCode(err) != 2 {
		t.Errorf("missing baseline: exit = %d, want 2", exitCode(err))
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-diff", bad, "testdata/todolist.trace"}, io.Discard, io.Discard)
	if err == nil || exitCode(err) != 1 {
		t.Errorf("malformed baseline: err=%v exit=%d, want exit 1", err, exitCode(err))
	}
}

// TestEvidenceSinks smoke-tests the DOT and HTML outputs through the
// CLI (rendering itself is unit-tested in internal/provenance).
func TestEvidenceSinks(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "races.dot")
	html := filepath.Join(dir, "triage.html")
	args := []string{"-dot-out", dot, "-html-out", html, "testdata/todolist.trace"}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	d, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(d, []byte("digraph provenance {")) {
		t.Errorf("dot output does not start a digraph: %.60q", d)
	}
	h, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(h, []byte("cafa triage report")) || !bytes.Contains(h, []byte("ptr_a0")) {
		t.Errorf("html report incomplete: %d bytes", len(h))
	}
}
