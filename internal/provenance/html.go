package provenance

import (
	"io"
	"strconv"
)

// The HTML triage report is a single self-contained file — inline
// style, no scripts, no external resources — so it opens from disk
// with no network access: one section per input, each race as a card
// with its causality verdict, conventional-model verdict, lock sets
// and instance counts, followed by a prune-witness table and the
// static coverage gaps.
//
// The page is appended to one byte slice by direct code that mirrors
// an html/template source section by section. Every interpolated
// string goes through htmlPage.text, which makes exactly the
// replacements html/template's text-context escaper makes: NUL to U+FFFD, and
// " ' & + < > to &#34; &#39; &amp; &#43; &lt; &gt;. Every other byte
// passes through unchanged, invalid UTF-8 included. That template is
// kept in html_test.go as the oracle: TestTriageHTMLMatchesTemplate
// and FuzzTriageHTML assert the two produce identical bytes.

// triageHead is the page prologue up to the opening <body>.
const triageHead = `<!DOCTYPE html>
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
<p class="stats">`

// WriteHTML renders the bundle as the HTML triage report in a single
// Write.
func WriteHTML(w io.Writer, b *Bundle) error {
	var h htmlPage
	h.bundle(b)
	_, err := w.Write(h)
	return err
}

// htmlPage is the page under construction.
type htmlPage []byte

func (h *htmlPage) raw(s string) { *h = append(*h, s...) }

func (h *htmlPage) num(n int) { *h = strconv.AppendInt(*h, int64(n), 10) }

func (h *htmlPage) unum(n uint32) { *h = strconv.AppendUint(*h, uint64(n), 10) }

// text appends s escaped for an HTML text context (see the file
// comment for the exact replacement set).
func (h *htmlPage) text(s string) {
	out := *h
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case 0:
			esc = "\uFFFD"
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '+':
			esc = "&#43;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		out = append(append(out, s[last:i]...), esc...)
		last = i + 1
	}
	*h = append(out, s[last:]...)
}

// ref appends "#idx entry [task]".
func (h *htmlPage) ref(r *EntryRef) {
	h.raw("#")
	h.num(r.Idx)
	h.raw(" ")
	h.text(r.Entry)
	h.raw(" [")
	h.text(r.Task)
	h.raw("]")
}

// path appends a derivation box; an empty path renders nothing.
func (h *htmlPage) path(label string, refs []EntryRef) {
	if len(refs) == 0 {
		return
	}
	h.raw(`<div class="path">`)
	h.raw(label)
	for i := range refs {
		h.raw("<br>")
		h.ref(&refs[i])
	}
	h.raw("</div>")
}

// words appends each string escaped and followed by a space.
func (h *htmlPage) words(ss []string) {
	for _, s := range ss {
		h.text(s)
		h.raw(" ")
	}
}

func (h *htmlPage) bundle(b *Bundle) {
	h.raw(triageHead)
	s := &b.Stats
	h.num(len(b.Inputs))
	h.raw(" input(s) &middot;\ncandidates=")
	h.num(s.Candidates)
	h.raw(" &middot;\nfiltered: ordered=")
	h.num(s.FilteredOrdered)
	h.raw(" lockset=")
	h.num(s.FilteredLockset)
	h.raw("\nif-guard=")
	h.num(s.FilteredIfGuard)
	h.raw(" intra-alloc=")
	h.num(s.FilteredIntraAlloc)
	h.raw("\nstatic-guard=")
	h.num(s.FilteredStaticGuard)
	h.raw("\nduplicates=")
	h.num(s.Duplicates)
	h.raw("</p>\n")
	for i := range b.Inputs {
		h.input(&b.Inputs[i])
	}
	h.raw("\n</body>\n</html>\n")
}

func (h *htmlPage) input(in *InputEvidence) {
	h.raw("\n<h2>")
	h.text(in.File)
	h.raw("</h2>\n<p class=\"stats\">")
	h.num(in.Events)
	h.raw(" events, ")
	h.num(in.Entries)
	h.raw(" trace entries &middot;\n")
	h.num(len(in.Races))
	h.raw(" race(s), ")
	h.num(len(in.Pruned))
	h.raw(" prune witness(es)")
	if in.PrunedDropped != 0 {
		h.raw(" (+")
		h.num(in.PrunedDropped)
		h.raw(" dropped past cap)")
	}
	h.raw("</p>\n")
	for i := range in.Races {
		h.race(&in.Races[i])
	}
	h.raw("\n")
	if len(in.Pruned) > 0 {
		h.raw("\n<table>\n<tr><th>stage</th><th>site</th><th>use#</th><th>free#</th><th>witness</th></tr>\n")
		for i := range in.Pruned {
			h.pruned(&in.Pruned[i])
		}
		h.raw("\n</table>\n")
	}
	h.raw("\n")
	if len(in.Gaps) > 0 {
		h.raw("\n<h2 class=\"gaps-h\">static coverage gaps — ")
		h.text(in.File)
		h.raw("</h2>\n<p class=\"stats\">ranked for triage: unordered gaps (true coverage holes) first,\n" +
			"statically-ordered gaps (topology-safe) last</p>\n<table>\n" +
			"<tr><th>site</th><th>static order</th><th>witness</th></tr>\n")
		for i := range in.Gaps {
			h.gap(&in.Gaps[i])
		}
		h.raw("\n</table>\n")
	}
	h.raw("\n")
}

func (h *htmlPage) race(r *RaceEvidence) {
	h.raw("\n<div class=\"race\">\n<h3><span class=\"class\">")
	h.text(r.Class)
	h.raw("</span>")
	h.text(r.Site)
	h.raw("</h3>\n<p class=\"meta\">use: ")
	h.text(r.UseTask)
	h.raw(" ")
	h.text(r.UseMethod)
	h.raw("@")
	h.unum(r.UsePC)
	h.raw(" (#")
	h.num(r.UseIdx)
	h.raw(") &middot;\nfree: ")
	h.text(r.FreeTask)
	h.raw(" ")
	h.text(r.FreeMethod)
	h.raw("@")
	h.unum(r.FreePC)
	h.raw(" (#")
	h.num(r.FreeIdx)
	h.raw(") &middot;\n")
	if r.SameLooper {
		h.raw("same looper")
	} else {
		h.raw("cross-looper")
	}
	h.raw(" &middot;\n")
	h.num(r.Instances)
	h.raw(" instance(s)</p>\n")
	if r.Ancestor != nil {
		h.raw("\n<p class=\"meta\">nearest common ancestor: ")
		h.ref(r.Ancestor)
		h.raw("</p>\n")
		h.path("to use:", r.AncestorToUse)
		h.raw("\n")
		h.path("to free:", r.AncestorToFree)
		h.raw("\n")
	} else {
		h.raw("\n<p class=\"meta\">no common causal ancestor</p>\n")
	}
	h.raw("\n<p class=\"meta\">conventional model: ")
	h.text(r.ConvDirection)
	if r.PathsTruncated {
		h.raw(" (paths truncated)")
	}
	h.raw("</p>\n")
	h.path("conventional ordering:", r.ConvPath)
	h.raw("\n")
	if len(r.UseLocks) > 0 {
		h.raw(`<p class="meta">locks at use: `)
		h.words(r.UseLocks)
		h.raw("</p>")
	}
	h.raw("\n")
	if len(r.FreeLocks) > 0 {
		h.raw(`<p class="meta">locks at free: `)
		h.words(r.FreeLocks)
		h.raw("</p>")
	}
	h.raw("\n</div>\n")
}

func (h *htmlPage) pruned(p *PruneRecord) {
	h.raw("\n<tr><td>")
	h.text(p.Stage)
	h.raw(`</td><td class="mono">`)
	h.text(p.Site)
	h.raw("</td><td>")
	h.num(p.UseIdx)
	h.raw("</td><td>")
	h.num(p.FreeIdx)
	h.raw("</td>\n<td class=\"mono\">")
	if p.Direction != "" {
		h.text(p.Direction)
		if len(p.Path) > 0 {
			h.raw(" via ")
			h.num(len(p.Path))
			h.raw(" step(s)")
		}
	}
	h.words(p.CommonLocks)
	if p.Alloc != nil {
		h.raw("alloc #")
		h.num(p.Alloc.Idx)
		h.raw(" ")
		h.text(p.Alloc.Entry)
	}
	if p.Guard != nil {
		h.raw("guard #")
		h.num(p.Guard.Idx)
		h.raw(" ")
		h.text(p.Guard.Entry)
		h.raw(" region [")
		h.unum(p.Guard.RegionLo)
		h.raw(",")
		h.unum(p.Guard.RegionHi)
		h.raw("]")
	}
	if p.Class != "" {
		h.raw("dup of ")
		h.text(p.Class)
	}
	h.raw("</td></tr>\n")
}

func (h *htmlPage) gap(g *GapRecord) {
	h.raw("\n<tr><td class=\"mono\">")
	h.text(g.Site)
	h.raw("</td>\n<td>")
	switch {
	case !g.Ordered:
		h.raw("none — coverage hole")
	case g.UseBeforeFree:
		h.raw("use-before-free")
	default:
		h.raw("free-before-use")
	}
	h.raw("</td>\n<td class=\"mono\">")
	for i, s := range g.Witness {
		if i > 0 {
			h.raw("<br>")
		}
		h.text(s)
	}
	h.raw("</td></tr>\n")
}
