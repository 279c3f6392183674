package hb

import (
	"math/bits"
	"slices"
	"unsafe"
)

// rowSet is the event-driven closure: one row per exit, holding the
// entry columns that exit reaches. Rows are adaptive containers after
// Roaring bitmaps. A row starts as a sorted column list in one shared
// arena and becomes a bit window once its population passes
// listLimit. A list that outgrows its slots moves to the arena's end,
// its capacity doubling from 4 to at most 16, and leaves the old slots
// unused. The window starts at the word of the row's first possible
// column, firstColFrom of its exit: HB ⊆ trace order, so every column
// left of that is zero. It runs to the last column.
//
// On the app models almost every row stays a list of at most six
// columns. The queue-heavy synthetic shapes order whole queues, and
// their rows promote to windows.
type rowSet struct {
	hdr   []rowHdr
	arena []int32
	bits  []uint64 // the windows, end to end
	words int      // ⌈columns/64⌉
	// maxBits is what bits would hold if every row were a window; its
	// growth stops there.
	maxBits int
	// merged and expand are scratch for list merges.
	merged []int32
	expand []int32
}

// rowHdr locates one row. A list row is arena[off:off+n] with room for
// cap columns; a window row has cap == winRow and its words lo… at
// bits[off:]. lo is the window's first word, set for every row.
type rowHdr struct{ off, n, cap, lo int32 }

const winRow = -1

// rowHdrBytes is the fixed per-row cost of the closure.
const rowHdrBytes = int(unsafe.Sizeof(rowHdr{}))

// maxList caps a list row: merging lists costs several times a word
// OR per column, so a row past it is a window even when the list would
// still be smaller.
const maxList = 16

func newRowSet(ix *anchorIndex) *rowSet {
	s := &rowSet{hdr: make([]rowHdr, len(ix.exits)), words: (len(ix.entries) + 63) / 64}
	for r, x := range ix.exits {
		lo := ix.firstColFrom(x) / 64
		s.hdr[r].lo = int32(lo)
		s.maxBits += s.words - lo
	}
	return s
}

// listLimit is the most columns row r holds as a list: at 4 bytes a
// column, two per window word cost what the window does.
func (s *rowSet) listLimit(r int) int { return min(2*(s.words-int(s.hdr[r].lo)), maxList) }

// list returns row r's columns and true when it is a list row.
func (s *rowSet) list(r int) ([]int32, bool) {
	h := s.hdr[r]
	if h.cap == winRow {
		return nil, false
	}
	return s.arena[h.off : h.off+h.n], true
}

// window returns row r's words lo… when it is a window row.
func (s *rowSet) window(r int) []uint64 {
	h := &s.hdr[r]
	return s.bits[h.off : int(h.off)+s.words-int(h.lo)]
}

func (s *rowSet) has(r, c int) bool {
	h := &s.hdr[r]
	if h.cap == winRow {
		k := c/64 - int(h.lo)
		return k >= 0 && s.bits[int(h.off)+k]>>(uint(c)%64)&1 != 0
	}
	for _, v := range s.arena[h.off : h.off+h.n] {
		if int(v) >= c {
			return int(v) == c
		}
	}
	return false
}

// word returns bits 64w…64w+63 of row r.
func (s *rowSet) word(r, w int) uint64 {
	h := &s.hdr[r]
	if h.cap == winRow {
		if k := w - int(h.lo); k >= 0 {
			return s.bits[int(h.off)+k]
		}
		return 0
	}
	var m uint64
	for _, c := range s.arena[h.off : h.off+h.n] {
		if int(c)/64 == w {
			m |= 1 << (uint(c) % 64)
		}
	}
	return m
}

// add sets column c in row r and reports whether it was clear.
func (s *rowSet) add(r, c int) bool {
	h := &s.hdr[r]
	if h.cap == winRow {
		p := &s.bits[int(h.off)+c/64-int(h.lo)]
		bit := uint64(1) << (uint(c) % 64)
		if *p&bit != 0 {
			return false
		}
		*p |= bit
		return true
	}
	l := s.arena[h.off : h.off+h.n]
	k, found := slices.BinarySearch(l, int32(c))
	if found {
		return false
	}
	if h.n < h.cap {
		l = l[:h.n+1]
		copy(l[k+1:], l[k:])
		l[k] = int32(c)
		h.n++
		return true
	}
	s.merged = append(append(append(s.merged[:0], l[:k]...), int32(c)), l[k:]...)
	s.store(r, s.merged)
	return true
}

// or ors row src into row dst and reports whether dst gained any
// column. src is a later exit than dst, so its window starts at or
// after dst's.
func (s *rowSet) or(dst, src int) bool {
	hs, hd := s.hdr[src], &s.hdr[dst]
	if hd.cap != winRow && hs.cap == winRow {
		sw := s.window(src)
		pop := 0
		for _, v := range sw {
			pop += bits.OnesCount64(v)
		}
		if int(hd.n)+pop <= s.listLimit(dst) {
			// The union still fits the list.
			s.expand = appendColumns(s.expand[:0], sw, int(hs.lo))
			return s.merge(dst, s.expand)
		}
		s.promote(dst)
	}
	if hd.cap != winRow {
		return s.merge(dst, s.arena[hs.off:hs.off+hs.n])
	}
	d := s.window(dst)
	var diff uint64
	if hs.cap == winRow {
		sw := s.window(src)
		d = d[hs.lo-hd.lo:][:len(sw)]
		for k, v := range sw {
			old := d[k]
			d[k] = old | v
			diff |= ^old & v
		}
		return diff != 0
	}
	for _, c := range s.arena[hs.off : hs.off+hs.n] {
		p := &d[int(c)/64-int(hd.lo)]
		bit := uint64(1) << (uint(c) % 64)
		diff |= ^*p & bit
		*p |= bit
	}
	return diff != 0
}

// merge unions the ascending columns from into list row r and reports
// whether r gained any.
func (s *rowSet) merge(r int, from []int32) bool {
	h := &s.hdr[r]
	if len(from) == 0 {
		return false
	}
	s.merged = mergeSorted(s.merged[:0], s.arena[h.off:h.off+h.n], from)
	if len(s.merged) == int(h.n) {
		return false
	}
	s.store(r, s.merged)
	return true
}

// store makes cols (ascending, not aliasing the arena) list row r's
// content, growing the list or, past the list limit, making the row a
// window.
func (s *rowSet) store(r int, cols []int32) {
	h := &s.hdr[r]
	n := int32(len(cols))
	limit := int32(s.listLimit(r))
	if n > limit {
		h.n = 0
		s.promote(r)
		win := s.window(r)
		for _, c := range cols {
			win[int(c)/64-int(h.lo)] |= 1 << (uint(c) % 64)
		}
		return
	}
	if n > h.cap {
		c := min(max(2*h.cap, n, 4), limit)
		if h.cap > 0 && int(h.off+h.cap) == len(s.arena) {
			// The row ends the arena: extend it in place.
			s.arena = append(s.arena, make([]int32, c-h.cap)...)
		} else {
			h.off = int32(len(s.arena))
			s.arena = append(s.arena, make([]int32, c)...)
		}
		h.cap = c
	}
	copy(s.arena[h.off:], cols)
	h.n = n
}

// promote turns list row r into a window holding its columns.
func (s *rowSet) promote(r int) {
	h := &s.hdr[r]
	w := s.words - int(h.lo)
	off := len(s.bits)
	if off+w > cap(s.bits) {
		// Grow as append would, but never past every row a window.
		grown := make([]uint64, off, min(max(2*cap(s.bits), off+w), s.maxBits))
		copy(grown, s.bits)
		s.bits = grown
	}
	s.bits = s.bits[:off+w]
	for _, c := range s.arena[h.off : h.off+h.n] {
		s.bits[off+int(c)/64-int(h.lo)] |= 1 << (uint(c) % 64)
	}
	h.off, h.n, h.cap = int32(off), 0, winRow
}

// transpose returns, for each of cols columns, the rows that hold it,
// ascending: column c's are rows[off[c]:off[c+1]]. It returns nil when
// the rows hold more than limit columns in all.
func (s *rowSet) transpose(cols, limit int) (off, rows []int32) {
	// Count column c at off[c+2]; after the prefix sum, off[c+1] is
	// c's start and serves as its fill cursor, ending as c+1's start.
	off = make([]int32, cols+2)
	var buf []int32
	total := 0
	for r := range s.hdr {
		cs := s.columns(r, buf)
		if total += len(cs); total > limit {
			return nil, nil
		}
		for _, c := range cs {
			off[c+2]++
		}
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	rows = make([]int32, total)
	for r := range s.hdr {
		for _, c := range s.columns(r, buf) {
			rows[off[c+1]] = int32(r)
			off[c+1]++
		}
	}
	return off[:cols+1], rows
}

// columns returns row r's columns, ascending: a list row's own slice,
// or a window's columns appended to buf[:0].
func (s *rowSet) columns(r int, buf []int32) []int32 {
	if l, ok := s.list(r); ok {
		return l
	}
	return appendColumns(buf[:0], s.window(r), int(s.hdr[r].lo))
}

// bytes is what the closure holds: row headers, the list arena and the
// windows.
func (s *rowSet) bytes() int {
	return len(s.hdr)*rowHdrBytes + 4*cap(s.arena) + 8*cap(s.bits)
}

// mergeSorted appends the union of ascending a and b to dst.
func mergeSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// appendColumns appends the columns set in a window whose first word
// is lo, ascending.
func appendColumns(dst []int32, win []uint64, lo int) []int32 {
	for k, m := range win {
		for ; m != 0; m &= m - 1 {
			dst = append(dst, int32((lo+k)*64+bits.TrailingZeros64(m)))
		}
	}
	return dst
}
