package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reportedPercentiles are the percentiles a latency may be reported
// at, lowest first.
var reportedPercentiles = []int{50, 75, 90, 95, 99}

// tailPercentile returns the highest reported percentile that leaves
// at least ten of n samples beyond it, or 0 when even the median does
// not. A percentile with fewer samples beyond it moves with one or two
// slow operations, so it is not a stable figure.
func tailPercentile(n int) int {
	best := 0
	for _, p := range reportedPercentiles {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// samplesBeyond counts the samples of n that lie above the p-th
// percentile's position among the sorted samples, as quantile places it.
func samplesBeyond(n int, p int) int {
	if n == 0 {
		return 0
	}
	return n - 1 - p*(n-1)/100
}

// interval is one span's extent, with the span that caused it.
type interval struct {
	id, parent int
	start, end time.Duration
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap one another or stick out of
// their parent: only the union of their extents inside the parent is
// subtracted, so self times are never negative and, for a tree whose
// children stay inside their parents, they sum to the roots' durations.
func selfTimes(spans []interval) map[int]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered returns how much of p the union of kids spans.
func covered(p interval, kids []interval) time.Duration {
	var segs []interval
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			segs = append(segs, interval{start: lo, end: hi})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, s := range segs {
		if i == 0 || s.start > curHi {
			total += curHi - curLo
			curLo, curHi = s.start, s.end
			continue
		}
		curHi = max(curHi, s.end)
	}
	return total + curHi - curLo
}
