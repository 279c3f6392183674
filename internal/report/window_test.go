package report

import (
	"slices"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// TestTruncatedTraceWindow: a trace is a finite window over a live
// system (the paper records 10–30 s sessions); the analyzer must
// handle prefixes in which tasks never end and sent events never
// begin. Every prefix that passes structural validation must analyze
// without error, and all reports must still be concurrent pairs.
func TestTruncatedTraceWindow(t *testing.T) {
	spec, _ := apps.ByName("FBReader")
	col := trace.NewCollector()
	b, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	full := col.T
	for _, frac := range []int{95, 80, 60, 40, 20, 5} {
		n := len(full.Entries) * frac / 100
		win := trace.New()
		win.Entries = full.Entries[:n]
		win.Tasks = slices.Clone(full.Tasks)
		for k, v := range full.Fields {
			win.Fields[k] = v
		}
		for k, v := range full.Methods {
			win.Methods[k] = v
		}
		if err := win.Validate(); err != nil {
			t.Fatalf("frac %d%%: prefix invalid: %v", frac, err)
		}
		g, err := hb.Build(win, hb.Options{})
		if err != nil {
			t.Fatalf("frac %d%%: %v", frac, err)
		}
		conv, err := hb.Build(win, hb.Options{Conventional: true})
		if err != nil {
			t.Fatalf("frac %d%%: %v", frac, err)
		}
		ls, err := lockset.Compute(win)
		if err != nil {
			t.Fatalf("frac %d%%: %v", frac, err)
		}
		res, err := detect.Detect(detect.Input{Trace: win, Graph: g, Conventional: conv, Locks: ls}, detect.Options{})
		if err != nil {
			t.Fatalf("frac %d%%: %v", frac, err)
		}
		for _, r := range res.Races {
			if !g.Concurrent(r.Use.ReadIdx, r.Free.Idx) {
				t.Fatalf("frac %d%%: ordered pair reported", frac)
			}
		}
	}
}
