package main

import (
	"strings"
	"time"
)

// metricSpec is one reported metric. The names and units are the ones
// BENCHMARK.json lists.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p75_ms", "ms"},
	{"mentries_s", "Mentries/s"},
	{"jobs_s", "1/s"},
	{"retained_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer that does not run on
// a workload reports 0 there.
var perLayer = []metricSpec{
	{"sim.run_ms", "ms"},
	{"sim.entries_per_s", "1/s"},
	{"trace.decode_ms", "ms"},
	{"trace.decode_alloc_mb", "MiB"},
	{"trace.decode_mallocs", "count"},
	{"trace.validate_ms", "ms"},
	{"hb.prescan_ms", "ms"},
	{"hb.graph_ms", "ms"},
	{"hb.conventional_ms", "ms"},
	{"hb.alloc_mb", "MiB"},
	{"hb.nodes", "count"},
	{"hb.base_edges", "count"},
	{"hb.rule_edges", "count"},
	{"hb.rounds", "count"},
	{"hb.closure_mb", "MiB"},
	{"lockset.ms", "ms"},
	{"lockset.alloc_mb", "MiB"},
	{"static.ms", "ms"},
	{"static.ordered_pairs", "count"},
	{"detect.ms", "ms"},
	{"detect.candidates", "count"},
	{"detect.races", "count"},
	{"detect.race_ratio", "ratio"},
	{"detect.filtered_ordered", "count"},
	{"provenance.collect_ms", "ms"},
	{"provenance.bundle_ms", "ms"},
	{"provenance.bundle_json_ms", "ms"},
	{"provenance.html_ms", "ms"},
	{"provenance.artifact_mb", "MiB"},
	{"report.render_ms", "ms"},
	{"report.bytes", "bytes"},
	{"analysis.overlap", "ratio"},
	{"analysis.op_alloc_mb", "MiB"},
	{"analysis.op_mallocs", "count"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.fetch_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"traced.op_ms", "ms"},
	{"traced.untraced_p50_ms", "ms"},
	{"traced.glue_ms", "ms"},
}

// layerTimes maps each per-layer time metric to the span it sums.
var layerTimes = map[string]string{
	"trace.decode_ms":           "trace.decode",
	"trace.validate_ms":         "trace.validate",
	"hb.prescan_ms":             "hb.prescan",
	"hb.graph_ms":               "hb.graph",
	"hb.conventional_ms":        "hb.conventional",
	"lockset.ms":                "lockset",
	"detect.ms":                 "detect",
	"provenance.bundle_ms":      "provenance.bundle",
	"provenance.bundle_json_ms": "provenance.bundle_json",
	"provenance.html_ms":        "provenance.html",
	"report.render_ms":          "report.render",
	"service.submit_ms":         "service.submit",
	"service.wait_ms":           "service.wait",
	"service.fetch_ms":          "service.fetch",
}

// counts are the per-layer metrics the layers report as numbers.
var counts = []string{
	"hb.nodes", "hb.base_edges", "hb.rule_edges", "hb.rounds", "hb.closure_mb",
	"detect.candidates", "detect.races", "detect.filtered_ordered",
	"provenance.artifact_mb", "report.bytes",
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics turns the traced run's records into the per-layer
// metrics. Each value is the median over the traced ops in which the
// layer ran; sim and static come from the traced set-up. untraced are
// the untraced ops the traced run interleaves.
func layerMetrics(t *tracer, untraced []sample) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	var untracedMs, allocMB, mallocs []float64
	for _, s := range untraced {
		untracedMs = append(untracedMs, ms(s.dur))
		allocMB = append(allocMB, float64(s.alloc)/mib)
		mallocs = append(mallocs, float64(s.mallocs))
	}
	out["analysis.op_alloc_mb"] = median(allocMB)
	out["analysis.op_mallocs"] = median(mallocs)
	var ops []*opRecord
	for _, r := range t.records {
		if r.setup {
			out["sim.run_ms"] = ms(r.self["sim.run"])
			if d := r.self["sim.run"]; d > 0 {
				out["sim.entries_per_s"] = r.counts["sim.entries"] / d.Seconds()
			}
			out["static.ms"] = ms(r.self["static"])
			out["static.ordered_pairs"] = r.counts["static.ordered_pairs"]
			continue
		}
		ops = append(ops, r)
	}
	// per takes the median of f over the ops where it is defined.
	per := func(f func(r *opRecord) (float64, bool)) float64 {
		var xs []float64
		for _, r := range ops {
			if v, ok := f(r); ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	for metric, span := range layerTimes {
		out[metric] = per(func(r *opRecord) (float64, bool) {
			d, ok := r.self[span]
			return ms(d), ok
		})
	}
	for _, c := range counts {
		out[c] = per(func(r *opRecord) (float64, bool) {
			v, ok := r.counts[c]
			return v, ok
		})
	}
	out["detect.race_ratio"] = per(func(r *opRecord) (float64, bool) {
		c := r.counts["detect.candidates"]
		return r.counts["detect.races"] / c, c > 0
	})
	out["trace.decode_alloc_mb"] = per(func(r *opRecord) (float64, bool) {
		a, ok := r.alloc["trace.decode"]
		return float64(a.bytes) / mib, ok
	})
	out["trace.decode_mallocs"] = per(func(r *opRecord) (float64, bool) {
		a, ok := r.alloc["trace.decode"]
		return float64(a.mallocs), ok
	})
	out["hb.alloc_mb"] = per(func(r *opRecord) (float64, bool) {
		var b uint64
		for _, s := range []string{"hb.prescan", "hb.graph", "hb.conventional"} {
			b += r.alloc[s].bytes
		}
		_, ok := r.self["hb.graph"]
		return float64(b) / mib, ok
	})
	out["lockset.alloc_mb"] = per(func(r *opRecord) (float64, bool) {
		a, ok := r.alloc["lockset"]
		return float64(a.bytes) / mib, ok
	})
	out["provenance.collect_ms"] = per(func(r *opRecord) (float64, bool) {
		d, ok := r.self["detect.evidence"]
		return ms(d - r.self["detect"]), ok
	})
	out["runtime.gc_cycles"] = per(func(r *opRecord) (float64, bool) { return float64(r.gcCycles), true })
	out["runtime.gc_pause_ms"] = per(func(r *opRecord) (float64, bool) { return ms(r.gcPause), true })
	out["traced.op_ms"] = per(func(r *opRecord) (float64, bool) { return ms(r.total), true })
	out["traced.glue_ms"] = per(func(r *opRecord) (float64, bool) { return ms(glue(r)), true })
	out["traced.untraced_p50_ms"] = median(untracedMs)
	// The layer sum counts the calls the untraced op makes: with
	// evidence on, the detector runs with its collector only.
	layerSum := per(func(r *opRecord) (float64, bool) {
		_, evidence := r.self["detect.evidence"]
		var d time.Duration
		for name, s := range r.self {
			if glueSpans[name] || strings.HasPrefix(name, "service.") || (evidence && name == "detect") {
				continue
			}
			d += s
		}
		return ms(d), d > 0
	})
	if p50 := median(untracedMs); p50 > 0 {
		out["analysis.overlap"] = layerSum / p50
	}
	return out
}

// glue is the op's self time spent in the benchmark's own spans.
func glue(r *opRecord) time.Duration {
	var d time.Duration
	for name := range glueSpans {
		d += r.self[name]
	}
	return d
}
