package hb

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"cafa/internal/trace"
)

// projection is the conventional model's closure restricted to the
// columns queries name, after EventRacer's on-demand happens-before
// queries. The detector asks about a few dozen columns per trace, so a
// full exits × entries closure would be almost all unread.
//
// The projection grows in blocks. A block over k new columns holds
// ⌈k/64⌉ words for every exit row up to the last exit that can reach
// one of them, filled by one reverse sweep over exits. Graph.Project
// adds the detector's columns as one block; a query on any other
// column adds a block for that column alone, so every query stays
// answerable.
//
// Readers load the current state without locking. An extension builds
// a new state under mu and publishes it whole, and no published state
// is ever written, so concurrent queries are safe.
type projection struct {
	mu    sync.Mutex
	state atomic.Pointer[projState]
}

type projState struct {
	slot   []projSlot // per column; blk -1 = not projected
	blocks []projBlock
}

// projSlot places a column at bit bit of block blk.
type projSlot struct{ blk, bit int32 }

// projBlock holds rows [0, rows) at wpr words each; later rows reach
// none of the block's columns.
type projBlock struct {
	wpr, rows int
	bits      []uint64
}

// Point names a trace entry by index and task, the form streaming
// callers hold (see OrderedAt).
type Point struct {
	Idx  int
	Task trace.TaskID
}

// Project announces entries that later queries name: Ordered(i, j)
// and Explain(i, j) for j among them, and Concurrent for pairs of
// them. On the conventional model it computes their reachability in
// one sweep; a query on an entry never announced still answers, at the
// cost of a sweep of its own. On the event-driven model, which holds
// its full closure, it does nothing. Project is safe to call
// concurrently with queries.
func (g *Graph) Project(pts []Point) {
	if g.proj == nil {
		return
	}
	cols := make([]int32, 0, len(pts))
	for _, p := range pts {
		if v := g.anchorBefore(p.Task, p.Idx); v >= 0 {
			if c := g.ix.entryAt[v]; c >= 0 {
				cols = append(cols, c)
			}
		}
	}
	g.project(cols)
}

// projected reports whether exit row r reaches column c in the
// conventional model, projecting c first if no earlier call has.
func (g *Graph) projected(r, c int32) bool {
	st := g.proj.state.Load()
	if st == nil || st.slot[c].blk < 0 {
		st = g.project([]int32{c})
	}
	s := st.slot[c]
	b := &st.blocks[s.blk]
	return int(r) < b.rows && b.bits[int(r)*b.wpr+int(s.bit)/64]&(1<<(uint(s.bit)%64)) != 0
}

// project adds the columns not yet projected as one block and returns
// the state that holds every column asked for.
func (g *Graph) project(cols []int32) *projState {
	p := g.proj
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.state.Load()
	st := &projState{}
	if old != nil {
		st.slot = slices.Clone(old.slot)
		st.blocks = old.blocks[:len(old.blocks):len(old.blocks)]
	} else {
		st.slot = make([]projSlot, len(g.ix.entries))
		for c := range st.slot {
			st.slot[c].blk = -1
		}
	}
	blk := int32(len(st.blocks))
	k, last := 0, int32(-1)
	for _, c := range cols {
		if st.slot[c].blk < 0 {
			st.slot[c] = projSlot{blk, int32(k)}
			k++
			last = max(last, c)
		}
	}
	if k == 0 {
		return old
	}
	st.blocks = append(st.blocks, g.sweep(st.slot, blk, k, last))
	p.state.Store(st)
	return st
}

// sweep fills block blk over its k columns, the last of which is
// column last. It is the event-driven closure's reverse sweep with
// rows cut to those columns: an exit's row is its own column plus what
// each successor reaches — the entries of the successor's task up to
// its next exit, then that exit's row.
func (g *Graph) sweep(slot []projSlot, blk int32, k int, last int32) projBlock {
	ix := g.ix
	lastNode := ix.entries[last]
	rows, found := slices.BinarySearch(ix.exits, lastNode)
	if found {
		rows++
	}
	b := projBlock{wpr: (k + 63) / 64, rows: rows}
	b.bits = make([]uint64, rows*b.wpr)
	mark := func(row []uint64, t int32) {
		if s := slot[ix.entryAt[t]]; s.blk == blk {
			row[s.bit/64] |= 1 << (uint(s.bit) % 64)
		}
	}
	for r := rows - 1; r >= 0; r-- {
		x := ix.exits[r]
		row := b.bits[r*b.wpr : (r+1)*b.wpr]
		if ix.isEntry(x) {
			mark(row, x)
		}
		for _, w := range g.adj[x] {
			// Nodes past lastNode are no projected entry, and exits
			// past it have all-zero rows.
			for t := w; t >= 0 && t <= lastNode; t = ix.next[t] {
				if ix.isEntry(t) {
					mark(row, t)
				}
				if ix.isExit(t) {
					s := int(ix.exitAt[t])
					for q, v := range b.bits[s*b.wpr : (s+1)*b.wpr] {
						row[q] |= v
					}
					break
				}
			}
		}
	}
	return b
}

// bytes is what the projection holds: the column slots and the blocks.
func (p *projection) bytes() int {
	st := p.state.Load()
	if st == nil {
		return 0
	}
	n := len(st.slot) * int(unsafe.Sizeof(projSlot{}))
	for _, b := range st.blocks {
		n += 8 * len(b.bits)
	}
	return n
}
