package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/report"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// writeSynthFixtures records synthetic traces (one binary, one text)
// stressing shapes the app models keep small.
func writeSynthFixtures(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	for i, cfg := range []synth.Config{
		{Chain: 4, EventsPer: 8, FreeThreads: 4},
		{Chain: 3, EventsPer: 6, FreeThreads: 3, Burst: 4, BurstEvents: 24},
	} {
		tr := synth.Trace(cfg)
		p := filepath.Join(dir, fmt.Sprintf("synth%d.trace", i))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			err = tr.Encode(f)
		} else {
			err = tr.EncodeText(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// batchOutput renders what cafa-analyze prints for args (report
// flags only: text, -stats, -context, -json) from reports built the
// in-memory way: DecodeAuto, then analysis.Analyze.
func batchOutput(t *testing.T, args []string) []byte {
	t.Helper()
	cfg, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*report.FileReport, len(cfg.inputs))
	for i, path := range cfg.inputs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeAuto(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(tr, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = &report.FileReport{File: path, Trace: tr, Result: res}
	}
	var buf bytes.Buffer
	if cfg.asJSON {
		err = report.RenderJSON(&buf, reports)
	} else {
		err = emitText(&buf, cfg, reports)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamDifferential is the streaming acceptance proof: on every
// app in the ten-app suite plus the synthetic shapes, cafa-analyze's
// one-sweep ingest must emit byte-identical output to reports built
// from the decoded trace by batch analysis.Analyze, for the text
// report, -stats, -context, and -json — streaming changes peak
// memory, never a single output byte.
func TestStreamDifferential(t *testing.T) {
	dir := t.TempDir()
	paths := writeAppFixtures(t, dir)
	paths = append(paths, writeSynthFixtures(t, dir)...)

	modes := [][]string{
		nil,
		{"-stats"},
		{"-context"},
		{"-json"},
		{"-stats", "-context", "-json"},
	}
	for _, path := range paths {
		base := strings.TrimSuffix(filepath.Base(path), ".trace")
		t.Run(base, func(t *testing.T) {
			for _, mode := range modes {
				args := append(append([]string{}, mode...), path)
				var stream bytes.Buffer
				if err := run(args, &stream, io.Discard); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if batch := batchOutput(t, args); !bytes.Equal(batch, stream.Bytes()) {
					t.Errorf("%v: output diverges:\n%s", mode, firstDiff(batch, stream.Bytes()))
				}
			}
		})
	}

	// Batch-of-many parity: all inputs in one invocation, with the
	// aggregate section, under parallelism.
	args := append([]string{"-j", "4", "-stats"}, paths...)
	var stream bytes.Buffer
	if err := run(args, &stream, io.Discard); err != nil {
		t.Fatal(err)
	}
	if batch := batchOutput(t, args); !bytes.Equal(batch, stream.Bytes()) {
		t.Errorf("aggregate output diverges:\n%s", firstDiff(batch, stream.Bytes()))
	}
}

// TestStreamObsPassivity: enabling the obs layer (here via -trace-out)
// must not change a byte of the report — the streaming gauges and
// counters are observers, not participants.
func TestStreamObsPassivity(t *testing.T) {
	var plain, observed bytes.Buffer
	traceOut := filepath.Join(t.TempDir(), "events.json")
	if err := run([]string{"-json", "testdata/zxing.trace"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-json", "-trace-out", traceOut, "testdata/zxing.trace"}, &observed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Error("obs enablement changed the streaming report")
	}
	if st, err := os.Stat(traceOut); err != nil || st.Size() == 0 {
		t.Errorf("trace-out not written: %v", err)
	}
}

// TestConfirmWithMetrics: -confirm and -metrics need no trace entries
// and combine with the one-sweep ingest.
func TestConfirmWithMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-confirm", "-metrics", "testdata/zxing.trace"}, &buf, io.Discard); err != nil {
		t.Fatalf("-confirm -metrics: %v", err)
	}
	if !strings.Contains(buf.String(), "replay confirmation") {
		t.Error("confirm section missing")
	}
}

// TestAnalyzeFilesRetainsEntriesOnlyWhenNeeded: the ingest sweep
// discards entries unless an output reads them. Plain report flags
// leave every report's Trace.Entries empty; -explain, -naive and the
// evidence flags keep every entry.
func TestAnalyzeFilesRetainsEntriesOnlyWhenNeeded(t *testing.T) {
	inputs := []string{"testdata/zxing.trace", "testdata/todolist.trace"}
	for _, flags := range [][]string{
		nil, {"-stats", "-context"}, {"-json"},
		{"-explain"}, {"-naive"}, {"-evidence-out", "x.json"},
	} {
		cfg, err := parseArgs(append(append([]string{}, flags...), inputs...))
		if err != nil {
			t.Fatal(err)
		}
		reports, err := analyzeFiles(cfg)
		if err != nil {
			t.Fatalf("%v: %v", flags, err)
		}
		retain := cfg.explain || cfg.naive || cfg.wantEvidence()
		for _, rep := range reports {
			want := 0
			if retain {
				want = rep.Trace.Len()
			}
			if got := len(rep.Trace.Entries); got != want || rep.Trace.Len() == 0 {
				t.Errorf("%v %s: %d entries held of %d, want %d", flags, rep.File, got, rep.Trace.Len(), want)
			}
		}
	}
}

// TestStreamErrorReporting covers faults met by the one streamed
// sweep: a missing input is an I/O error (exit 2); garbage, and a
// binary trace cut off after the passes have consumed part of it, are
// malformed input (exit 1). Every error names the failing path.
func TestStreamErrorReporting(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope.trace")
	err := run([]string{missing}, io.Discard, io.Discard)
	if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), missing) {
		t.Errorf("missing input: err %v (exit %d), want exit 2 naming the path", err, exitCode(err))
	}

	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("CAFA-TEXT 1\nnot a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{garbage}, io.Discard, io.Discard)
	if err == nil || exitCode(err) != 1 || !strings.Contains(err.Error(), garbage) {
		t.Errorf("garbage input: err %v (exit %d), want exit 1 naming the path", err, exitCode(err))
	}

	raw, err := os.ReadFile("testdata/zxing.trace")
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.trace")
	if err := os.WriteFile(truncated, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{truncated}, io.Discard, io.Discard)
	if err == nil || exitCode(err) != 1 || !strings.Contains(err.Error(), truncated) {
		t.Errorf("truncated input: err %v (exit %d), want exit 1 naming the path", err, exitCode(err))
	}
}
