package provenance_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/provenance"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// analyzeApp builds one app model and analyzes it with evidence on.
func analyzeApp(t *testing.T, name string, scale int) *analysis.Result {
	t.Helper()
	spec, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(col.T, analysis.Options{Evidence: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evidence == nil {
		t.Fatal("Options.Evidence set but Result.Evidence is nil")
	}
	return res
}

func TestCollectorEvidenceMatchesReport(t *testing.T) {
	res := analyzeApp(t, "ToDoList", 4)
	if len(res.Races) == 0 {
		t.Fatal("ToDoList model must report races")
	}
	evs := res.Evidence.Evidence()
	if len(evs) != len(res.Races) {
		t.Fatalf("evidence records = %d, races = %d", len(evs), len(res.Races))
	}
	withAncestor := 0
	for i, ev := range evs {
		r := res.Races[i]
		if ev.Site != r.Key() {
			t.Errorf("evidence %d site %v != race key %v", i, ev.Site, r.Key())
		}
		if ev.Instances < 1 {
			t.Errorf("evidence %d instances = %d", i, ev.Instances)
		}
		if ev.FirstUseIdx != r.Use.ReadIdx || ev.FirstFreeIdx != r.Free.Idx {
			t.Errorf("evidence %d first instance does not match the reported race", i)
		}
		// The FP2 scenario's use and free descend from distinct harness
		// roots (no common history — the exported Ancestor is null);
		// every other reported pair is bootstrapped by one component,
		// so its fork must be found, and both derivations must start at
		// it and end at the racy operations.
		if ev.Ancestor < 0 {
			continue
		}
		withAncestor++
		if len(ev.ToUse) < 2 || ev.ToUse[0] != ev.Ancestor || ev.ToUse[len(ev.ToUse)-1] != r.Use.ReadIdx {
			t.Errorf("evidence %d: ToUse %v does not connect ancestor %d to use %d",
				i, ev.ToUse, ev.Ancestor, r.Use.ReadIdx)
		}
		if len(ev.ToFree) < 2 || ev.ToFree[0] != ev.Ancestor || ev.ToFree[len(ev.ToFree)-1] != r.Free.Idx {
			t.Errorf("evidence %d: ToFree %v does not connect ancestor %d to free %d",
				i, ev.ToFree, ev.Ancestor, r.Free.Idx)
		}
		if res.Evidence.Trace().Entries[ev.Ancestor].Op != trace.OpFork {
			t.Errorf("evidence %d: nearest ancestor %d is not the bootstrap fork", i, ev.Ancestor)
		}
	}
	if withAncestor != len(evs)-1 {
		t.Errorf("races with a common ancestor = %d, want all but the FP2 site (%d)",
			withAncestor, len(evs)-1)
	}
}

func TestCollectorDedupFoldsInstances(t *testing.T) {
	// Scale drives repeated dynamic instances of the same sites.
	res := analyzeApp(t, "ToDoList", 6)
	if res.Stats.Duplicates == 0 {
		t.Fatal("expected duplicate instances at this scale")
	}
	total := 0
	for _, ev := range res.Evidence.Evidence() {
		total += ev.Instances - 1
		if ev.Instances > 1 {
			if ev.LastUseIdx == ev.FirstUseIdx && ev.LastFreeIdx == ev.FirstFreeIdx {
				t.Errorf("site %v: %d instances but last==first", ev.Site, ev.Instances)
			}
		}
	}
	if total != res.Stats.Duplicates {
		t.Errorf("folded duplicates = %d, Stats.Duplicates = %d", total, res.Stats.Duplicates)
	}
	counts := res.Evidence.StageCounts()
	if got := counts[detect.PruneDedup]; got != res.Stats.Duplicates {
		t.Errorf("dedup stage tally = %d, want %d", got, res.Stats.Duplicates)
	}
}

func TestCollectorStageTalliesMatchStats(t *testing.T) {
	res := analyzeApp(t, "ZXing", 4)
	counts := res.Evidence.StageCounts()
	want := map[detect.PruneStage]int{
		detect.PruneOrdered:    res.Stats.FilteredOrdered,
		detect.PruneLockset:    res.Stats.FilteredLockset,
		detect.PruneIfGuard:    res.Stats.FilteredIfGuard,
		detect.PruneIntraAlloc: res.Stats.FilteredIntraAlloc,
		detect.PruneDedup:      res.Stats.Duplicates,
	}
	for stage, n := range want {
		if counts[stage] != n {
			t.Errorf("stage %v tally = %d, stats say %d", stage, counts[stage], n)
		}
	}
}

func TestPrunedWitnesses(t *testing.T) {
	res := analyzeApp(t, "ZXing", 4)
	tr := res.Evidence.Trace()
	seen := map[detect.PruneStage]bool{}
	for _, p := range res.Evidence.PrunedRecords() {
		p := p
		seen[p.W.Stage] = true
		switch p.W.Stage {
		case detect.PruneOrdered:
			if len(p.Path) < 2 {
				t.Errorf("ordered prune of %v lacks an HB derivation", p.Site())
			}
			from, to := p.Use.ReadIdx, p.Free.Idx
			if !p.W.UseBeforeFree {
				from, to = to, from
			}
			if len(p.Path) >= 2 && (p.Path[0] != from || p.Path[len(p.Path)-1] != to) {
				t.Errorf("ordered prune path %v does not connect %d to %d", p.Path, from, to)
			}
		case detect.PruneLockset:
			if len(p.W.CommonLocks) == 0 {
				t.Errorf("lockset prune of %v has no common lock", p.Site())
			}
		case detect.PruneIntraAlloc:
			if p.W.AllocIdx < 0 || p.W.AllocIdx >= tr.Len() {
				t.Errorf("intra-alloc prune of %v: bad alloc idx %d", p.Site(), p.W.AllocIdx)
			} else if tr.Entries[p.W.AllocIdx].Op != trace.OpPtrWrite {
				t.Errorf("intra-alloc witness %d is not an allocation write", p.W.AllocIdx)
			}
		case detect.PruneIfGuard:
			if p.W.GuardIdx < 0 || p.W.GuardIdx >= tr.Len() {
				t.Errorf("if-guard prune of %v: bad guard idx %d", p.Site(), p.W.GuardIdx)
			}
			if p.W.GuardLo > p.W.GuardHi {
				t.Errorf("if-guard region [%d,%d] inverted", p.W.GuardLo, p.W.GuardHi)
			}
		}
	}
	for _, stage := range []detect.PruneStage{
		detect.PruneOrdered, detect.PruneLockset, detect.PruneIfGuard, detect.PruneIntraAlloc,
	} {
		if !seen[stage] {
			t.Errorf("ZXing model produced no %v prune witness", stage)
		}
	}
}

func TestCollectorMaxPrunedCap(t *testing.T) {
	spec, _ := apps.ByName("ToDoList")
	col := trace.NewCollector()
	out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(col.T, analysis.Options{
		Evidence:        true,
		EvidenceOptions: provenance.Options{MaxPruned: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Evidence
	if c.Dropped() == 0 {
		t.Fatal("cap of 2 should drop records on this trace")
	}
	// Tallies keep counting past the cap…
	counts, retained := c.StageCounts(), 0
	totalTally := 0
	for _, n := range counts {
		totalTally += n
	}
	retained = len(c.PrunedRecords())
	if totalTally != retained+c.Dropped() {
		t.Errorf("tallies %d != retained %d + dropped %d", totalTally, retained, c.Dropped())
	}
	// …and the first witness of every observed stage is retained.
	has := map[detect.PruneStage]bool{}
	for _, p := range c.PrunedRecords() {
		has[p.W.Stage] = true
	}
	for stage, n := range counts {
		if n > 0 && !has[detect.PruneStage(stage)] {
			t.Errorf("stage %v observed %d times but no witness retained", detect.PruneStage(stage), n)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	res := analyzeApp(t, "ToDoList", 4)
	b := &provenance.Bundle{
		Version: provenance.BundleVersion,
		Inputs:  []provenance.InputEvidence{res.Evidence.Bundle("todolist.trace")},
		Stats:   res.Stats,
	}
	b.Inputs[0].Stats = res.Stats
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := provenance.ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Inputs) != 1 || got.Inputs[0].File != "todolist.trace" {
		t.Fatalf("round trip lost the input: %+v", got.Inputs)
	}
	if len(got.Inputs[0].Races) != len(res.Races) {
		t.Errorf("round trip races = %d, want %d", len(got.Inputs[0].Races), len(res.Races))
	}
	if got.Stats != res.Stats {
		t.Errorf("round trip stats = %+v, want %+v", got.Stats, res.Stats)
	}
	for _, r := range got.Inputs[0].Races {
		if !strings.Contains(r.Site, ": use ") {
			t.Errorf("site string %q not in canonical form", r.Site)
		}
	}

	// Version gate.
	bad := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := provenance.ReadBundle(strings.NewReader(bad)); err == nil {
		t.Error("unsupported version must be rejected")
	}
}

func mkBundle(sites ...string) *provenance.Bundle {
	races := make([]provenance.RaceEvidence, len(sites))
	for i, s := range sites {
		races[i] = provenance.RaceEvidence{Site: s}
	}
	return &provenance.Bundle{
		Version: provenance.BundleVersion,
		Inputs:  []provenance.InputEvidence{{File: "x.trace", Races: races}},
	}
}

func TestDiffClassification(t *testing.T) {
	base := mkBundle("a: use f@1 free g@2", "b: use f@1 free g@2")
	cur := mkBundle("b: use f@1 free g@2", "c: use f@1 free g@2")
	d := provenance.Diff(base, cur, "base.json")
	if !d.HasNew() {
		t.Fatal("site c is new")
	}
	if len(d.New) != 1 || d.New[0] != "c: use f@1 free g@2" {
		t.Errorf("New = %v", d.New)
	}
	if len(d.Fixed) != 1 || d.Fixed[0] != "a: use f@1 free g@2" {
		t.Errorf("Fixed = %v", d.Fixed)
	}
	if len(d.Persisting) != 1 || d.Persisting[0] != "b: use f@1 free g@2" {
		t.Errorf("Persisting = %v", d.Persisting)
	}
	out := d.Format()
	if !strings.Contains(out, "new=1 fixed=1 persisting=1") ||
		!strings.Contains(out, "  new: c: use f@1 free g@2\n") {
		t.Errorf("Format = %q", out)
	}

	same := provenance.Diff(base, base, "base.json")
	if same.HasNew() || len(same.Fixed) != 0 {
		t.Errorf("self-diff must be clean: %+v", same)
	}

	// A baseline written before the static-order prune stage was
	// removed carries that stage's stats field and a static-order
	// prune record with a staticPath. It reads under the same version
	// and diffs clean against the same sites.
	raw, err := os.ReadFile("testdata/baseline_static_order.json")
	if err != nil {
		t.Fatal(err)
	}
	old, err := provenance.ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("baseline from before the stage was removed: %v", err)
	}
	d = provenance.Diff(old, mkBundle(
		"ptr_b0: use use_b0@1 free freeBody_b0@1",
		"ptr_f1x0: use useReg_f1x0@1 free cb_f1x0@1",
	), "baseline_static_order.json")
	if d.HasNew() || len(d.Fixed) != 0 || len(d.Persisting) != 2 {
		t.Errorf("diff against the old baseline = %s", d.Format())
	}
}

func TestDiffSiteMovedBetweenInputs(t *testing.T) {
	base := mkBundle("a: use f@1 free g@2")
	cur := &provenance.Bundle{
		Version: provenance.BundleVersion,
		Inputs: []provenance.InputEvidence{
			{File: "other.trace", Races: []provenance.RaceEvidence{{Site: "a: use f@1 free g@2"}}},
		},
	}
	d := provenance.Diff(base, cur, "base.json")
	if d.HasNew() || len(d.Fixed) != 0 || len(d.Persisting) != 1 {
		t.Errorf("site moved between files must be persisting: %+v", d)
	}
}

func TestExplainConv(t *testing.T) {
	res := analyzeApp(t, "ToDoList", 4)
	r := res.Races[0]
	v := provenance.ExplainConv(res.Conventional, r.Use.ReadIdx, r.Free.Idx)
	switch v.Direction {
	case provenance.DirUnordered:
		if v.Path != nil {
			t.Error("unordered verdict must have no path")
		}
		if got := v.Format(res.Conventional, "  "); got != "  unordered in both models" {
			t.Errorf("Format = %q", got)
		}
	case provenance.DirUseBeforeFree, provenance.DirFreeBeforeUse:
		if len(v.Path) < 2 {
			t.Errorf("ordered verdict needs a derivation, got %v", v.Path)
		}
		got := v.Format(res.Conventional, "  ")
		if !strings.HasPrefix(got, "  conventional model would order ") {
			t.Errorf("Format = %q", got)
		}
		for _, line := range strings.Split(got, "\n") {
			if !strings.HasPrefix(line, "  ") {
				t.Errorf("line %q not indented", line)
			}
		}
	}
	// A nil graph is always unordered.
	if v := provenance.ExplainConv(nil, 1, 2); v.Direction != provenance.DirUnordered {
		t.Errorf("nil graph verdict = %v", v.Direction)
	}
}

func TestWriteDOT(t *testing.T) {
	res := analyzeApp(t, "ToDoList", 4)
	b := &provenance.Bundle{
		Version: provenance.BundleVersion,
		Inputs:  []provenance.InputEvidence{res.Evidence.Bundle("todolist.trace")},
	}
	var buf bytes.Buffer
	if err := provenance.WriteDOT(&buf, b); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph provenance {") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("not a digraph: %.80q", dot)
	}
	if want := strings.Count(dot, "subgraph cluster_"); want != len(res.Races) {
		t.Errorf("clusters = %d, want one per race (%d)", want, len(res.Races))
	}
	if !strings.Contains(dot, "color=red") {
		t.Error("racy operations must be highlighted")
	}
	if !strings.Contains(dot, "style=filled") {
		t.Error("common ancestors must be drawn")
	}
}

func TestWriteHTML(t *testing.T) {
	res := analyzeApp(t, "ToDoList", 4)
	b := &provenance.Bundle{
		Version: provenance.BundleVersion,
		Inputs:  []provenance.InputEvidence{res.Evidence.Bundle("todolist.trace")},
		Stats:   res.Stats,
	}
	b.Inputs[0].Stats = res.Stats
	var buf bytes.Buffer
	if err := provenance.WriteHTML(&buf, b); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "todolist.trace", "cafa triage report",
		b.Inputs[0].Races[0].Site, "nearest common ancestor",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestGapsRankedInTriageHTML(t *testing.T) {
	lt := provenance.NewLiveTriage()
	// Deliberately unsorted: ordered pairs first, sites reversed.
	lt.AddGaps("ZXing", []provenance.GapRecord{
		{Site: "ptr_z use a:1 free b:1", Ordered: true, UseBeforeFree: true,
			Witness: []string{"use a@1 [event evA, runs once]", "-> begin(evB) [post]"}},
		{Site: "ptr_m use c:2 free d:3"},
		{Site: "ptr_a use e:4 free f:5"},
	})
	snap := lt.Snapshot()
	gaps := snap.Inputs[0].Gaps
	if len(gaps) != 3 || gaps[0].Site != "ptr_a use e:4 free f:5" ||
		gaps[1].Site != "ptr_m use c:2 free d:3" || !gaps[2].Ordered {
		t.Fatalf("gaps not ranked unordered-first, site-sorted: %+v", gaps)
	}
	var buf bytes.Buffer
	if err := provenance.WriteHTML(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"static coverage gaps", "none — coverage hole", "use-before-free",
		"begin(evB) [post]",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("triage HTML missing %q", want)
		}
	}
	if hole, ord := strings.Index(html, "none — coverage hole"), strings.Index(html, "use-before-free"); hole > ord {
		t.Error("coverage holes must render before ordered gaps")
	}
}
