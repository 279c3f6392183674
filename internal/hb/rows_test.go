package hb

import (
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// matrixBytes is what a dense exits × entries bit matrix over g's
// index takes.
func matrixBytes(g *Graph) int {
	return len(g.ix.exits) * ((len(g.ix.entries) + 63) / 64) * 8
}

// rowBytes is what row r's container holds, header included.
func rowBytes(s *rowSet, r int) int {
	if h := s.hdr[r]; h.cap != winRow {
		return rowHdrBytes + 4*int(h.cap)
	}
	return rowHdrBytes + 8*(s.words-int(s.hdr[r].lo))
}

// TestClosureBytesAppModels: on every app model at the paper's event
// counts, the event-driven closure holds at most 5% of the bytes a
// dense exits × entries matrix takes.
func TestClosureBytesAppModels(t *testing.T) {
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		g, err := Build(col.T, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, dense := g.Stats().ClosureBytes, matrixBytes(g)
		t.Logf("%s: %d closure bytes, dense matrix %d (%.2f%%)", spec.Name, got, dense, 100*float64(got)/float64(dense))
		if got <= 0 || got*20 > dense {
			t.Errorf("%s: closure holds %d bytes, over 5%% of the %d-byte dense matrix", spec.Name, got, dense)
		}
	}
}

// TestRowsWithinDenseWindow: on shapes whose rows are dense, no row's
// container exceeds its window of the dense matrix — the words from
// the row's first possible column on — plus the fixed row header, so
// adaptive rows never cost more than the matrix did.
func TestRowsWithinDenseWindow(t *testing.T) {
	for _, cfg := range []synth.Config{
		{Chain: 32, EventsPer: 32},
		{Burst: 64, BurstEvents: 256},
	} {
		g, err := Build(synth.Trace(cfg), Options{})
		if err != nil {
			t.Fatal(err)
		}
		words, windows := (len(g.ix.entries)+63)/64, 0
		for r, x := range g.ix.exits {
			if _, ok := g.reach.list(r); !ok {
				windows++
			}
			limit := 8*(words-g.ix.firstColFrom(x)/64) + rowHdrBytes
			if got := rowBytes(g.reach, r); got > limit {
				t.Fatalf("%+v: row %d holds %d bytes, over its dense window and header (%d)", cfg, r, got, limit)
			}
		}
		if windows == 0 {
			t.Fatalf("%+v: no row promoted to a window", cfg)
		}
		t.Logf("%+v: %d of %d rows are windows; %d closure bytes, dense matrix %d",
			cfg, windows, len(g.ix.exits), g.Stats().ClosureBytes, matrixBytes(g))
	}
}
