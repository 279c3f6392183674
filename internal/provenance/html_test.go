package provenance_test

import (
	"bytes"
	"encoding/json"
	"html/template"
	"math/rand"
	"strings"
	"testing"

	"cafa/internal/analysis"
	"cafa/internal/apps"
	"cafa/internal/detect"
	"cafa/internal/provenance"
	"cafa/internal/report"
	"cafa/internal/sim"
	"cafa/internal/synth"
	"cafa/internal/trace"
)

// triageTmpl is the html/template source the triage report was first
// rendered from, kept verbatim as the oracle for WriteHTML: the direct
// writer must produce exactly the bytes this template executes to.
var triageTmpl = template.Must(template.New("triage").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cafa triage report</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.4em; }
h2 { font-size: 1.1em; border-bottom: 1px solid #ccc; padding-bottom: .2em; margin-top: 2em; }
.race { border: 1px solid #d33; border-radius: 6px; background: #fff; padding: .8em 1em; margin: 1em 0; }
.race h3 { margin: 0 0 .4em 0; font-size: 1em; font-family: monospace; }
.race .class { display: inline-block; padding: 0 .5em; border-radius: 3px; background: #d33; color: #fff; font-size: .85em; margin-right: .6em; }
.race .meta { color: #555; font-size: .9em; }
.path { font-family: monospace; font-size: .85em; background: #f4f4f4; padding: .5em; border-radius: 4px; margin: .4em 0; overflow-x: auto; }
table { border-collapse: collapse; font-size: .85em; margin: .6em 0; }
th, td { border: 1px solid #ddd; padding: .25em .6em; text-align: left; }
th { background: #eee; }
td.mono { font-family: monospace; }
.stats { color: #555; font-size: .9em; }
</style>
</head>
<body>
<h1>cafa triage report</h1>
<p class="stats">{{len .Inputs}} input(s) &middot;
candidates={{.Stats.Candidates}} &middot;
filtered: ordered={{.Stats.FilteredOrdered}} lockset={{.Stats.FilteredLockset}}
if-guard={{.Stats.FilteredIfGuard}} intra-alloc={{.Stats.FilteredIntraAlloc}}
static-guard={{.Stats.FilteredStaticGuard}}
duplicates={{.Stats.Duplicates}}</p>
{{range .Inputs}}
<h2>{{.File}}</h2>
<p class="stats">{{.Events}} events, {{.Entries}} trace entries &middot;
{{len .Races}} race(s), {{len .Pruned}} prune witness(es){{if .PrunedDropped}} (+{{.PrunedDropped}} dropped past cap){{end}}</p>
{{range .Races}}
<div class="race">
<h3><span class="class">{{.Class}}</span>{{.Site}}</h3>
<p class="meta">use: {{.UseTask}} {{.UseMethod}}@{{.UsePC}} (#{{.UseIdx}}) &middot;
free: {{.FreeTask}} {{.FreeMethod}}@{{.FreePC}} (#{{.FreeIdx}}) &middot;
{{if .SameLooper}}same looper{{else}}cross-looper{{end}} &middot;
{{.Instances}} instance(s)</p>
{{if .Ancestor}}
<p class="meta">nearest common ancestor: #{{.Ancestor.Idx}} {{.Ancestor.Entry}} [{{.Ancestor.Task}}]</p>
{{if .AncestorToUse}}<div class="path">to use:{{range .AncestorToUse}}<br>#{{.Idx}} {{.Entry}} [{{.Task}}]{{end}}</div>{{end}}
{{if .AncestorToFree}}<div class="path">to free:{{range .AncestorToFree}}<br>#{{.Idx}} {{.Entry}} [{{.Task}}]{{end}}</div>{{end}}
{{else}}
<p class="meta">no common causal ancestor</p>
{{end}}
<p class="meta">conventional model: {{.ConvDirection}}{{if .PathsTruncated}} (paths truncated){{end}}</p>
{{if .ConvPath}}<div class="path">conventional ordering:{{range .ConvPath}}<br>#{{.Idx}} {{.Entry}} [{{.Task}}]{{end}}</div>{{end}}
{{if .UseLocks}}<p class="meta">locks at use: {{range .UseLocks}}{{.}} {{end}}</p>{{end}}
{{if .FreeLocks}}<p class="meta">locks at free: {{range .FreeLocks}}{{.}} {{end}}</p>{{end}}
</div>
{{end}}
{{if .Pruned}}
<table>
<tr><th>stage</th><th>site</th><th>use#</th><th>free#</th><th>witness</th></tr>
{{range .Pruned}}
<tr><td>{{.Stage}}</td><td class="mono">{{.Site}}</td><td>{{.UseIdx}}</td><td>{{.FreeIdx}}</td>
<td class="mono">{{if .Direction}}{{.Direction}}{{if .Path}} via {{len .Path}} step(s){{end}}{{end}}{{range .CommonLocks}}{{.}} {{end}}{{if .Alloc}}alloc #{{.Alloc.Idx}} {{.Alloc.Entry}}{{end}}{{if .Guard}}guard #{{.Guard.Idx}} {{.Guard.Entry}} region [{{.Guard.RegionLo}},{{.Guard.RegionHi}}]{{end}}{{if .Class}}dup of {{.Class}}{{end}}</td></tr>
{{end}}
</table>
{{end}}
{{if .Gaps}}
<h2 class="gaps-h">static coverage gaps — {{.File}}</h2>
<p class="stats">ranked for triage: unordered gaps (true coverage holes) first,
statically-ordered gaps (topology-safe) last</p>
<table>
<tr><th>site</th><th>static order</th><th>witness</th></tr>
{{range .Gaps}}
<tr><td class="mono">{{.Site}}</td>
<td>{{if .Ordered}}{{if .UseBeforeFree}}use-before-free{{else}}free-before-use{{end}}{{else}}none — coverage hole{{end}}</td>
<td class="mono">{{range $i, $s := .Witness}}{{if $i}}<br>{{end}}{{$s}}{{end}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}
</body>
</html>
`))

// assertArtifactsMatchOracles renders b through WriteHTML and
// WriteJSON and compares the bytes with the template oracle and with
// a json.Encoder using SetIndent("", "  ").
func assertArtifactsMatchOracles(t testing.TB, name string, b *provenance.Bundle) {
	t.Helper()
	var want, got bytes.Buffer
	if err := triageTmpl.Execute(&want, b); err != nil {
		t.Fatalf("%s: oracle template: %v", name, err)
	}
	if err := provenance.WriteHTML(&got, b); err != nil {
		t.Fatalf("%s: WriteHTML: %v", name, err)
	}
	assertSameBytes(t, name+" HTML", got.Bytes(), want.Bytes())
	htmlBytes := got.Len()

	want.Reset()
	got.Reset()
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		t.Fatalf("%s: oracle encoder: %v", name, err)
	}
	if err := b.WriteJSON(&got); err != nil {
		t.Fatalf("%s: WriteJSON: %v", name, err)
	}
	assertSameBytes(t, name+" JSON", got.Bytes(), want.Bytes())
	t.Logf("%s: %d B of HTML and %d B of JSON identical", name, htmlBytes, got.Len())
}

// assertSameBytes reports the first differing offset with context.
func assertSameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("%s differs at byte %d (got %d B, want %d B)\n got …%q\nwant …%q",
		what, i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// bundleOf assembles the evidence bundle for analyzed traces, as
// report.BuildBundle does for the CLI and the service.
func bundleOf(t *testing.T, files []string, traces []*trace.Trace) *provenance.Bundle {
	t.Helper()
	var reps []*report.FileReport
	for i, tr := range traces {
		res, err := analysis.Analyze(tr, analysis.Options{Evidence: true})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, &report.FileReport{File: files[i], Trace: tr, Result: res})
	}
	return report.BuildBundle(reps)
}

func TestTriageHTMLMatchesTemplate(t *testing.T) {
	t.Run("ToDoList", func(t *testing.T) {
		res := analyzeApp(t, "ToDoList", 4)
		b := &provenance.Bundle{
			Version: provenance.BundleVersion,
			Inputs:  []provenance.InputEvidence{res.Evidence.Bundle("todolist.trace")},
			Stats:   res.Stats,
		}
		b.Inputs[0].Stats = res.Stats
		assertArtifactsMatchOracles(t, "ToDoList", b)
	})
	t.Run("ten-apps", func(t *testing.T) {
		var files []string
		var traces []*trace.Trace
		for _, spec := range apps.Registry {
			col := trace.NewCollector()
			out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Sys.Run(); err != nil {
				t.Fatal(err)
			}
			files = append(files, strings.ToLower(spec.Name)+".trace")
			traces = append(traces, col.T)
		}
		assertArtifactsMatchOracles(t, "ten-apps", bundleOf(t, files, traces))
	})
	t.Run("serve-shape", func(t *testing.T) {
		tr := synth.Trace(synth.Config{Chain: 8, EventsPer: 16, FreeThreads: 4, Burst: 8, BurstEvents: 120})
		assertArtifactsMatchOracles(t, "serve-shape", bundleOf(t, []string{"serve.trace"}, []*trace.Trace{tr}))
	})
	t.Run("gaps-only", func(t *testing.T) {
		lt := provenance.NewLiveTriage()
		lt.AddGaps("ZXing <main>", []provenance.GapRecord{
			{Site: "ptr_z use a:1 free b:1", Ordered: true, UseBeforeFree: true,
				Witness: []string{"use a@1 [event evA, runs once]", "-> begin(evB) [post]"}},
			{Site: "ptr_y use a:1 free b:2", Ordered: true,
				Witness: []string{"free b@2 [event evB]\n-> begin(evA) & 'x' + \"y\""}},
			{Site: "ptr_m use c:2 free d:3"},
		})
		snap := lt.Snapshot()
		assertArtifactsMatchOracles(t, "gaps-only", &snap)
	})
}

// fuzzPieces are the fragments fuzzed strings are spelled from: the
// seven bytes the escaper replaces, invalid UTF-8, U+FFFD, U+2028 and
// other multi-byte runes, newlines and backslashes. Fuzz bytes past
// the table stand for themselves.
var fuzzPieces = []string{
	"\x00", `"`, "'", "&", "+", "<", ">",
	"\xff", "\xc3", "\xe2\x80", "\uFFFD", "\u2028", "é", "—", "\n", " ", `\`,
}

// fuzzSource draws bundle fields from fuzz bytes; once the bytes run
// out every draw is zero.
type fuzzSource struct{ data []byte }

func (f *fuzzSource) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzSource) bool() bool { return f.byte()&1 == 1 }

// int is a small signed value, so indices and counts go negative.
func (f *fuzzSource) int() int { return int(int8(f.byte())) }

func (f *fuzzSource) str() string {
	var sb strings.Builder
	for n := f.byte() % 8; n > 0; n-- {
		if b := f.byte(); int(b) < len(fuzzPieces) {
			sb.WriteString(fuzzPieces[b])
		} else {
			sb.WriteByte(b)
		}
	}
	return sb.String()
}

// count picks a slice length: -1 for a nil slice, else 0..max-1.
func (f *fuzzSource) count(max byte) int { return int(f.byte()%(max+1)) - 1 }

func fuzzSlice[T any](f *fuzzSource, max byte, gen func() T) []T {
	n := f.count(max)
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = gen()
	}
	return out
}

func (f *fuzzSource) ref() provenance.EntryRef {
	return provenance.EntryRef{Idx: f.int(), Entry: f.str(), Task: f.str()}
}

func (f *fuzzSource) refPtr() *provenance.EntryRef {
	if !f.bool() {
		return nil
	}
	r := f.ref()
	return &r
}

func (f *fuzzSource) refs() []provenance.EntryRef { return fuzzSlice(f, 4, f.ref) }

func (f *fuzzSource) strs() []string { return fuzzSlice(f, 4, f.str) }

func (f *fuzzSource) stats() detect.Stats {
	return detect.Stats{
		Uses: f.int(), Frees: f.int(), Allocs: f.int(), Candidates: f.int(),
		FilteredOrdered: f.int(), FilteredLockset: f.int(), FilteredIfGuard: f.int(),
		FilteredIntraAlloc: f.int(), FilteredStaticGuard: f.int(), Duplicates: f.int(),
	}
}

func (f *fuzzSource) race() provenance.RaceEvidence {
	r := provenance.RaceEvidence{
		Site: f.str(), Class: f.str(), Field: f.str(), Var: f.str(),
		UseTask: f.str(), UseMethod: f.str(), UsePC: uint32(f.int()), UseIdx: f.int(),
		FreeTask: f.str(), FreeMethod: f.str(), FreePC: uint32(f.int()), FreeIdx: f.int(),
		SameLooper: f.bool(),
		Ancestor:   f.refPtr(), AncestorToUse: f.refs(), AncestorToFree: f.refs(),
		ConvDirection: f.str(), ConvPath: f.refs(), PathsTruncated: f.bool(),
		UseLocks: f.strs(), FreeLocks: f.strs(),
		Instances: f.int(), FirstUseIdx: f.int(), FirstFreeIdx: f.int(),
		LastUseIdx: f.int(), LastFreeIdx: f.int(),
	}
	if f.bool() {
		r.Confirmed = &provenance.ConfirmationRecord{Seed: uint64(f.byte()), DelayMs: int64(f.int()), Crash: f.str()}
	}
	return r
}

// pruned draws a record for any stage, unknown ones included, and
// fills each witness group independently, so stage-shaped records and
// every mix of groups are both reachable.
func (f *fuzzSource) pruned() provenance.PruneRecord {
	p := provenance.PruneRecord{
		Stage:  detect.PruneStage(int(f.byte()) % (detect.NumPruneStages + 1)).String(),
		Site:   f.str(),
		UseIdx: f.int(), FreeIdx: f.int(),
	}
	if f.bool() {
		p.Direction = f.str()
	}
	p.Path = f.refs()
	p.CommonLocks = f.strs()
	p.Alloc = f.refPtr()
	if f.bool() {
		p.Guard = &provenance.GuardRef{EntryRef: f.ref(), RegionLo: uint32(f.int()), RegionHi: uint32(f.int())}
	}
	if f.bool() {
		p.Class = f.str()
	}
	p.PathTruncated = f.bool()
	return p
}

func (f *fuzzSource) gap() provenance.GapRecord {
	return provenance.GapRecord{Site: f.str(), Ordered: f.bool(), UseBeforeFree: f.bool(), Witness: f.strs()}
}

func (f *fuzzSource) input() provenance.InputEvidence {
	return provenance.InputEvidence{
		File: f.str(), Events: f.int(), Entries: f.int(), Stats: f.stats(),
		Races:         fuzzSlice(f, 3, f.race),
		Pruned:        fuzzSlice(f, 4, f.pruned),
		PrunedDropped: f.int(),
		Gaps:          fuzzSlice(f, 3, f.gap),
	}
}

func (f *fuzzSource) bundle() *provenance.Bundle {
	return &provenance.Bundle{Version: f.int(), Stats: f.stats(), Inputs: fuzzSlice(f, 4, f.input)}
}

// FuzzTriageHTML builds bundles from fuzz bytes and holds WriteHTML
// to the template oracle and WriteJSON to the json.Encoder it
// replaced.
func FuzzTriageHTML(f *testing.F) {
	f.Add([]byte{})
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all)
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 1024)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{data: data}
		assertArtifactsMatchOracles(t, "fuzz", src.bundle())
	})
}
