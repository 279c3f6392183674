package apps

import (
	"strings"
	"testing"

	"cafa/internal/sim"
	"cafa/internal/trace"
)

func TestRegistryRowsSumToReported(t *testing.T) {
	if len(Registry) != 10 {
		t.Fatalf("registry has %d apps, want 10", len(Registry))
	}
	var reported, harmful int
	for _, s := range Registry {
		if s.Paper.Total() != s.Paper.Reported {
			t.Errorf("%s: columns sum to %d, reported %d", s.Name, s.Paper.Total(), s.Paper.Reported)
		}
		reported += s.Paper.Reported
		harmful += s.Paper.Harmful()
	}
	if reported != 115 {
		t.Errorf("total reported = %d, want 115", reported)
	}
	if harmful != 69 {
		t.Errorf("total harmful = %d, want 69", harmful)
	}
}

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names length mismatch")
	}
	if _, ok := ByName("mytracks"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByName("NotAnApp"); ok {
		t.Error("unknown app found")
	}
}

func TestLabelStringsAndHarmful(t *testing.T) {
	for l := LabelTrueA; l <= LabelFP3; l++ {
		if s := l.String(); s == "" || strings.HasPrefix(s, "Label(") {
			t.Errorf("label %d unnamed", l)
		}
	}
	if !LabelTrueA.Harmful() || !LabelTrueC.Harmful() || LabelFP1.Harmful() || LabelFP3.Harmful() {
		t.Error("Harmful misclassifies")
	}
}

func TestBuildAndRunEveryApp(t *testing.T) {
	for _, spec := range Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			col := trace.NewCollector()
			b, err := Build(spec, sim.Config{Tracer: col, Seed: 1}, 60)
			if err != nil {
				t.Fatal(err)
			}
			wantScenarios := spec.Paper.Reported + guardedPerApp + lockedPerApp + orderedPerApp
			if len(b.Truth) != wantScenarios {
				t.Errorf("planted %d scenarios, want %d", len(b.Truth), wantScenarios)
			}
			var filtered int
			for _, pl := range b.Truth {
				if pl.Label == LabelFiltered {
					filtered++
				}
			}
			if filtered != guardedPerApp+lockedPerApp+orderedPerApp {
				t.Errorf("benign scenarios = %d, want %d", filtered, guardedPerApp+lockedPerApp+orderedPerApp)
			}
			if err := b.Sys.Run(); err != nil {
				t.Fatal(err)
			}
			if err := col.T.Validate(); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			if b.Sys.Deadlocked() {
				t.Fatalf("deadlocked: %v", b.Sys.BlockedTasks())
			}
			// No scenario may crash during the benign recorded run: the
			// free sides are all delayed past the uses.
			if n := len(b.Sys.Crashes()); n != 0 {
				t.Errorf("crashes during recording: %v", b.Sys.Crashes())
			}
			// Ground-truth fields must be unique.
			seen := map[string]bool{}
			for _, pl := range b.Truth {
				if seen[pl.Field] {
					t.Errorf("duplicate truth field %s", pl.Field)
				}
				seen[pl.Field] = true
				if pl.UseMethod == "" {
					t.Errorf("%s: missing use method", pl.Field)
				}
			}
		})
	}
}

func TestEventVolumeAtScaleOne(t *testing.T) {
	spec, _ := ByName("ConnectBot")
	col := trace.NewCollector()
	b, err := Build(spec, sim.Config{Tracer: col, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := col.T.EventCount(); got != spec.Paper.Events {
		t.Errorf("events = %d, want exactly %d", got, spec.Paper.Events)
	}
}

func TestScaleReducesVolume(t *testing.T) {
	spec, _ := ByName("VLC")
	small, err := Build(spec, sim.Config{Tracer: trace.Discard{}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(spec, sim.Config{Tracer: trace.Discard{}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if small.FillerPairs >= big.FillerPairs {
		t.Errorf("scale 100 pairs (%d) not smaller than scale 10 (%d)", small.FillerPairs, big.FillerPairs)
	}
}

func TestDeterministicTraces(t *testing.T) {
	spec, _ := ByName("Music")
	gen := func() *trace.Trace {
		col := trace.NewCollector()
		b, err := Build(spec, sim.Config{Tracer: col, Seed: 5}, 80)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		return col.T
	}
	a, b := gen(), gen()
	if a.Len() != b.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs: %s vs %s", i, a.Entries[i].String(), b.Entries[i].String())
		}
	}
}

// ascendingTracer is a Collector that records every task declared at
// or below the ID declared before it.
type ascendingTracer struct {
	*trace.Collector
	last     trace.TaskID
	disorder []trace.TaskID
}

func (a *ascendingTracer) DeclareTask(ti trace.TaskInfo) {
	if ti.ID <= a.last {
		a.disorder = append(a.disorder, ti.ID)
	}
	a.last = ti.ID
	a.Collector.DeclareTask(ti)
}

// TestCollectorDeclaresTasksAscending: the simulator declares every
// app model's tasks in strictly ascending ID order, so
// Trace.DeclareTask only ever appends while a Collector records a run.
func TestCollectorDeclaresTasksAscending(t *testing.T) {
	for _, spec := range Registry {
		col := &ascendingTracer{Collector: trace.NewCollector()}
		b, err := Build(spec, sim.Config{Tracer: col, Seed: 1}, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Sys.Run(); err != nil {
			t.Fatal(err)
		}
		if len(col.T.Tasks) == 0 || len(col.disorder) > 0 {
			t.Errorf("%s: %d tasks, declared out of order: %v", spec.Name, len(col.T.Tasks), col.disorder)
		}
	}
}
