package hb

import (
	"cmp"
	"slices"
)

// anchorIndex names the only nodes where reachability crosses
// tasks. Within a task, reachability is program order; a path into
// another task leaves through an exit and arrives at an entry:
//
//   - exits (closure rows): task ends plus sources of cross-task base
//     edges;
//   - entries (closure columns): task begins plus targets of
//     cross-task base edges.
//
// Every edge added after the prescan — the conventional looper order,
// the atomicity rule and queue rules 1–4 — runs end → begin, so it is
// exit → entry and the index never changes while the fixpoint runs.
// One index is built per Prescan and shared by both models: the
// event-driven rows (rowSet) and the conventional projection both
// address it.
type anchorIndex struct {
	exits   []int32 // row → node id, ascending
	entries []int32 // column → node id, ascending
	// exitAt maps a node to the row of its task's first exit at or
	// after it, entryAt to the column of its task's last entry at or
	// before it (-1 when there is none).
	exitAt  []int32
	entryAt []int32
	// next is the node's program-order successor in its task, or -1.
	next []int32

	// Rule events are numbered looper by looper in begin order. evAt
	// maps a column to the event that begins there and anteEv a column
	// to the event whose antecedent reads it (see ruleEvent); both are
	// -1 elsewhere.
	evAt    []int32
	anteEv  []int32
	loopers []looperRule
	queues  []queueRule
}

// looperRule is one looper's events as the atomicity scan reads them:
// the begin columns of its events that have both a begin and an end,
// split by whether an entry sits inside the event.
type looperRule struct {
	first    int         // number of events[0]
	events   []ruleEvent // in begin order
	lo       int         // first word of the masks
	simple   []uint64    // columns of simple events, words lo…
	inner    []uint64    // columns of events with an internal entry
	hasInner bool
}

// ruleEvent is an event with both a begin and an end. The atomicity
// rule's antecedent begin(i) ≺ end(j) reads column ante, the last
// entry at or before end(j); its consequent end(i) ≺ begin(j) reads
// col. For a simple event, one with no entry inside, the two are the
// same column.
type ruleEvent struct {
	begin, end int32 // node ids
	col        int32 // column of begin
	ante       int32 // column of the last entry at or before end
}

// queueRule is one queue's sends as the queue-rule scan reads them.
type queueRule struct {
	sends  []sendInfo // in trace order
	begins []int32    // per send: begin node of its event, or -1
	ends   []int32    // per send: end node of its event, or -1
	// own chains each send to the next send to this queue from the
	// same task (-1): those are ordered after it by program order.
	own []int32
	// lo/mask hold the columns entryAt(send) over words lo…; cols
	// (ascending) and at/sendIdx resolve a column to its sends.
	lo      int
	mask    []uint64
	cols    []int32
	at      []int32 // cols[k]'s sends are sendIdx[at[k]:at[k+1]]
	sendIdx []int32
}

func (ix *anchorIndex) isExit(n int32) bool {
	r := ix.exitAt[n]
	return r >= 0 && ix.exits[r] == n
}

func (ix *anchorIndex) isEntry(n int32) bool {
	c := ix.entryAt[n]
	return c >= 0 && ix.entries[c] == n
}

// firstColFrom returns the first column whose entry is node x or
// later: nothing x reaches lies left of it.
func (ix *anchorIndex) firstColFrom(x int32) int {
	c, _ := slices.BinarySearch(ix.entries, x)
	return c
}

// buildAnchorIndex derives the index from the sealed node set and
// base edges.
func (ps *Prescan) buildAnchorIndex() *anchorIndex {
	n := len(ps.nodes)
	ix := &anchorIndex{
		exitAt:  make([]int32, n),
		entryAt: make([]int32, n),
		next:    make([]int32, n),
	}
	// Mark anchors with isAnchor, then number them in node order.
	const isAnchor = -2
	for id := range ps.nodes {
		ix.exitAt[id], ix.entryAt[id] = -1, -1
	}
	for s := range ps.begins {
		if b := ps.begins[s]; b >= 0 {
			ix.entryAt[b] = isAnchor
		}
		if e := ps.ends[s]; e >= 0 {
			ix.exitAt[e] = isAnchor
		}
	}
	for u := range ps.nodes {
		for _, v := range ps.baseSuccOf(u) {
			if ps.nodes[u].slot != ps.nodes[v].slot {
				ix.exitAt[u] = isAnchor
				ix.entryAt[v] = isAnchor
			}
		}
	}
	for id := range ps.nodes {
		if ix.exitAt[id] == isAnchor {
			ix.exitAt[id] = int32(len(ix.exits))
			ix.exits = append(ix.exits, int32(id))
		}
		if ix.entryAt[id] == isAnchor {
			ix.entryAt[id] = int32(len(ix.entries))
			ix.entries = append(ix.entries, int32(id))
		}
	}
	// Resolve every other node to its task's nearest anchors.
	for s := range int32(len(ps.tr.Tasks)) {
		ns := ps.slotNodes(s)
		last := int32(-1)
		for _, id := range ns {
			if ix.entryAt[id] >= 0 {
				last = ix.entryAt[id]
			}
			ix.entryAt[id] = last
		}
		first, nxt := int32(-1), int32(-1)
		for k := len(ns) - 1; k >= 0; k-- {
			id := ns[k]
			if ix.exitAt[id] >= 0 {
				first = ix.exitAt[id]
			}
			ix.exitAt[id] = first
			ix.next[id] = nxt
			nxt = id
		}
	}

	ix.buildLooperRules(ps)
	ix.buildQueueRules(ps)
	return ix
}

// sortedKeys returns a map's keys in ascending order, so the rule
// scans visit loopers and queues deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// setBit sets column c in a mask whose first word is lo.
func setBit(mask []uint64, lo int, c int32) {
	mask[int(c)/64-lo] |= 1 << (uint(c) % 64)
}

func (ix *anchorIndex) buildLooperRules(ps *Prescan) {
	ix.evAt = make([]int32, len(ix.entries))
	ix.anteEv = make([]int32, len(ix.entries))
	for c := range ix.evAt {
		ix.evAt[c], ix.anteEv[c] = -1, -1
	}
	n := 0
	for l := range int32(len(ps.tr.Tasks)) {
		lr := looperRule{first: n}
		for _, ev := range ps.eventsOf(l) {
			if b, e := ps.begins[ev], ps.ends[ev]; b >= 0 && e >= 0 {
				re := ruleEvent{begin: b, end: e, col: ix.entryAt[b], ante: ix.entryAt[e]}
				ix.evAt[re.col], ix.anteEv[re.ante] = int32(n), int32(n)
				lr.events = append(lr.events, re)
				n++
			}
		}
		if len(lr.events) == 0 {
			continue
		}
		lr.lo = int(lr.events[0].col) / 64
		words := int(lr.events[len(lr.events)-1].col)/64 - lr.lo + 1
		lr.simple = make([]uint64, words)
		lr.inner = make([]uint64, words)
		for _, ev := range lr.events {
			if ev.ante == ev.col {
				setBit(lr.simple, lr.lo, ev.col)
			} else {
				setBit(lr.inner, lr.lo, ev.col)
				lr.hasInner = true
			}
		}
		ix.loopers = append(ix.loopers, lr)
	}
}

func (ix *anchorIndex) buildQueueRules(ps *Prescan) {
	for _, q := range sortedKeys(ps.queueSends) {
		sends := ps.queueSends[q]
		qr := queueRule{
			sends:  sends,
			begins: make([]int32, len(sends)),
			ends:   make([]int32, len(sends)),
			own:    make([]int32, len(sends)),
		}
		lastOf := make(map[int32]int32) // task slot → its last send
		var byCol []int32               // send indexes with an entry, by column
		for i, s := range sends {
			qr.begins[i], qr.ends[i], qr.own[i] = ps.nodeOf(ps.begins, s.event), ps.nodeOf(ps.ends, s.event), -1
			t := ps.nodes[s.node].slot
			if prev, ok := lastOf[t]; ok {
				qr.own[prev] = int32(i)
			}
			lastOf[t] = int32(i)
			if ix.entryAt[s.node] >= 0 {
				byCol = append(byCol, int32(i))
			}
		}
		if len(byCol) > 0 {
			col := func(i int32) int32 { return ix.entryAt[sends[i].node] }
			slices.SortStableFunc(byCol, func(a, b int32) int { return int(col(a) - col(b)) })
			qr.lo = int(col(byCol[0])) / 64
			qr.mask = make([]uint64, int(col(byCol[len(byCol)-1]))/64-qr.lo+1)
			qr.sendIdx = byCol
			for k, i := range byCol {
				c := col(i)
				if k == 0 || c != qr.cols[len(qr.cols)-1] {
					qr.cols = append(qr.cols, c)
					qr.at = append(qr.at, int32(k))
					setBit(qr.mask, qr.lo, c)
				}
			}
			qr.at = append(qr.at, int32(len(byCol)))
		}
		ix.queues = append(ix.queues, qr)
	}
}
