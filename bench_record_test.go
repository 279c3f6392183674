package cafa

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var updateBench = flag.Bool("update-bench", false, "rewrite the running test's rows in BENCH.json with fresh measurements")

// benchFile is the committed benchmark record at the repo root: one
// JSON list of benchRow, each row owned by the test that writes it.
const benchFile = "BENCH.json"

// benchRow is one measurement. The host fields say where and when it
// was taken, so rows from different runs can be compared; Values
// holds the numbers under names the writing test chooses.
type benchRow struct {
	Name       string `json:"name"`
	Test       string `json:"test"`
	Recorded   string `json:"recorded"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Threshold is the bound the test gates this row's measurement
	// on, when it gates one.
	Threshold float64            `json:"threshold,omitempty"`
	Values    map[string]float64 `json:"values"`
}

// recordBench, under -update-bench, stamps rows with t's name and the
// host (measured at procs) and makes them t's rows in BENCH.json.
func recordBench(t *testing.T, procs int, rows ...benchRow) {
	t.Helper()
	if !*updateBench {
		return
	}
	for i := range rows {
		r := &rows[i]
		r.Test = t.Name()
		r.Recorded = time.Now().Format("2006-01-02")
		r.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
		r.CPU = cpuModel()
		r.NumCPU = runtime.NumCPU()
		r.GOMAXPROCS = procs
	}
	if err := writeBenchRows(benchFile, t.Name(), rows); err != nil {
		t.Fatal(err)
	}
}

// writeBenchRows replaces test's rows in the list at path with rows.
// Every other row keeps its place; the new rows take the place of the
// test's first old row, or go last when it had none. A missing file
// is an empty list. A file that does not parse is an error and is
// left as it is.
func writeBenchRows(path, test string, rows []benchRow) error {
	var old []benchRow
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	out := make([]benchRow, 0, len(old)+len(rows))
	placed := false
	for _, r := range old {
		if r.Test != test {
			out = append(out, r)
		} else if !placed {
			out = append(out, rows...)
			placed = true
		}
	}
	if !placed {
		out = append(out, rows...)
	}
	raw, err = json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// cpuModel names the host's processor where the OS reports it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// TestWriteBenchRows checks the record's ownership rule: rewriting one
// test's rows keeps every other row and the row order, and a file that
// does not parse is refused, not overwritten.
func TestWriteBenchRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), benchFile)
	row := func(name, test string, v float64) benchRow {
		return benchRow{Name: name, Test: test, Values: map[string]float64{"v": v}}
	}
	read := func() []benchRow {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rows []benchRow
		if err := json.Unmarshal(raw, &rows); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	summary := func(rows []benchRow) string {
		var parts []string
		for _, r := range rows {
			parts = append(parts, fmt.Sprintf("%s:%s=%g", r.Test, r.Name, r.Values["v"]))
		}
		return strings.Join(parts, " ")
	}

	steps := []struct {
		test string
		rows []benchRow
		want string
	}{
		{"TestA", []benchRow{row("a1", "TestA", 1), row("a2", "TestA", 2)}, "TestA:a1=1 TestA:a2=2"},
		{"TestB", []benchRow{row("b", "TestB", 3)}, "TestA:a1=1 TestA:a2=2 TestB:b=3"},
		// TestA's rows are replaced where they stood; TestB's survives.
		{"TestA", []benchRow{row("a1", "TestA", 4)}, "TestA:a1=4 TestB:b=3"},
		{"TestB", []benchRow{row("b", "TestB", 5), row("c", "TestB", 6)}, "TestA:a1=4 TestB:b=5 TestB:c=6"},
	}
	for _, s := range steps {
		if err := writeBenchRows(path, s.test, s.rows); err != nil {
			t.Fatal(err)
		}
		if got := summary(read()); got != s.want {
			t.Fatalf("after writing %s: rows %q, want %q", s.test, got, s.want)
		}
	}

	garbage := []byte(`{"recorded": "not a list"}`)
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBenchRows(path, "TestA", []benchRow{row("a1", "TestA", 7)}); err == nil {
		t.Fatal("writeBenchRows accepted a file that is not a row list")
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != string(garbage) {
		t.Fatalf("unparseable file was overwritten: %q, %v", raw, err)
	}
}
