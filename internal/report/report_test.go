package report

import (
	"strings"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/detect"
)

// TestTable1Reproduction is the headline test: at reduced filler
// volume (races are volume-independent), every app must reproduce its
// Table 1 row exactly — counts, classes, and false-positive types.
func TestTable1Reproduction(t *testing.T) {
	results, err := RunAll(RunOptions{Scale: 40})
	if err != nil {
		t.Fatal(err)
	}
	var reported, harmful int
	for _, r := range results {
		if r.Reported != r.Paper.Reported {
			t.Errorf("%s: reported %d, paper %d", r.Name, r.Reported, r.Paper.Reported)
		}
		if r.A != r.Paper.A || r.B != r.Paper.B || r.C != r.Paper.C {
			t.Errorf("%s: true races %d/%d/%d, paper %d/%d/%d",
				r.Name, r.A, r.B, r.C, r.Paper.A, r.Paper.B, r.Paper.C)
		}
		if r.FP1 != r.Paper.FP1 || r.FP2 != r.Paper.FP2 || r.FP3 != r.Paper.FP3 {
			t.Errorf("%s: FPs %d/%d/%d, paper %d/%d/%d",
				r.Name, r.FP1, r.FP2, r.FP3, r.Paper.FP1, r.Paper.FP2, r.Paper.FP3)
		}
		if len(r.Missed) != 0 || len(r.Misclassified) != 0 || r.Unexpected != 0 {
			t.Errorf("%s: missed=%v misclassified=%v unexpected=%d",
				r.Name, r.Missed, r.Misclassified, r.Unexpected)
		}
		reported += r.Reported
		harmful += r.Harmful()
	}
	if reported != 115 {
		t.Errorf("total reported = %d, want 115", reported)
	}
	if harmful != 69 {
		t.Errorf("total harmful = %d, want 69 (60%% precision)", harmful)
	}
	if p := Problems(results); p != "" {
		t.Errorf("problems:\n%s", p)
	}
	table := Table1(results)
	for _, want := range []string{"ConnectBot", "Overall", "115/115", "60%"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestHeuristicAblationIncreasesFalsePositives(t *testing.T) {
	// With the commutativity heuristics disabled, the same traces
	// produce strictly more reports (the paper's motivation for the
	// filters). MyTracks' four FP(II) scenarios already pass the
	// heuristics, so use an app whose heuristics actually fire —
	// every app's intra-event allocations come from the RPC (a)
	// scenario.
	spec, _ := apps.ByName("MyTracks")
	base, err := RunApp(spec, RunOptions{Scale: 60})
	if err != nil {
		t.Fatal(err)
	}
	abl, err := RunApp(spec, RunOptions{Scale: 60, Detect: detect.Options{
		DisableIfGuard: true, DisableIntraEventAlloc: true, DisableLockset: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Reported < base.Reported {
		t.Errorf("ablation reported %d < base %d", abl.Reported, base.Reported)
	}
}

func TestPreciseMatchingEliminatesTypeIII(t *testing.T) {
	// The §6.3 future-work extension: static data-flow use matching
	// removes exactly the Type III false positives and nothing else.
	for _, name := range []string{"ZXing", "Camera", "Music"} {
		spec, _ := apps.ByName(name)
		base, err := RunApp(spec, RunOptions{Scale: 60})
		if err != nil {
			t.Fatal(err)
		}
		prec, err := RunApp(spec, RunOptions{Scale: 60, Precise: true})
		if err != nil {
			t.Fatal(err)
		}
		if base.FP3 != spec.Paper.FP3 || base.FP3 == 0 {
			t.Fatalf("%s: baseline FP3 = %d, want %d", name, base.FP3, spec.Paper.FP3)
		}
		if prec.FP3 != 0 {
			t.Errorf("%s: precise FP3 = %d, want 0", name, prec.FP3)
		}
		if prec.A != base.A || prec.B != base.B || prec.C != base.C ||
			prec.FP1 != base.FP1 || prec.FP2 != base.FP2 {
			t.Errorf("%s: precise mode changed non-III counts: base=%+v precise=%+v", name, base, prec)
		}
		if len(prec.Missed) != 0 || len(prec.Misclassified) != 0 || prec.Unexpected != 0 {
			t.Errorf("%s: precise mode problems: %v %v %d", name, prec.Missed, prec.Misclassified, prec.Unexpected)
		}
	}
}

func TestNaiveBaselineVolume(t *testing.T) {
	// The low-level detector must report roughly the filler volume
	// (the paper's thousands-of-false-positives motivation, §4.1).
	spec, _ := apps.ByName("ConnectBot")
	r, err := RunApp(spec, RunOptions{Scale: 20, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.NaiveRaces < 50 {
		t.Errorf("naive races = %d, want >> reported (%d)", r.NaiveRaces, r.Reported)
	}
	if r.NaiveRaces <= r.Reported*5 {
		t.Errorf("naive (%d) should dwarf use-free reports (%d)", r.NaiveRaces, r.Reported)
	}
}

func TestFig8Measurement(t *testing.T) {
	spec, _ := apps.ByName("VLC")
	row, err := MeasureApp(spec, Fig8Options{Scale: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if row.Slowdown <= 1.0 {
		t.Errorf("tracing slowdown = %.2fx, want > 1x", row.Slowdown)
	}
	if row.Entries == 0 || row.TraceBytes == 0 {
		t.Error("device sink recorded nothing")
	}
	out := Fig8Table([]Fig8Row{row})
	if !strings.Contains(out, "VLC") || !strings.Contains(out, "x") {
		t.Error("Fig8Table output malformed")
	}
}

func TestRunAppSeedVariation(t *testing.T) {
	// Different seeds shuffle the schedule but the planted races are
	// schedule-robust by construction — for every app.
	for _, spec := range apps.Registry {
		for seed := uint64(1); seed <= 3; seed++ {
			r, err := RunApp(spec, RunOptions{Scale: 150, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if r.Reported != spec.Paper.Reported {
				t.Errorf("%s seed %d: reported %d, want %d", spec.Name, seed, r.Reported, spec.Paper.Reported)
			}
			if len(r.Missed) != 0 || r.Unexpected != 0 || len(r.Misclassified) != 0 {
				t.Errorf("%s seed %d: missed=%v misclass=%v unexpected=%d",
					spec.Name, seed, r.Missed, r.Misclassified, r.Unexpected)
			}
		}
	}
}
