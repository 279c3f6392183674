package hb

// bitmat is a dense reachability matrix: one bit row per exit, one
// column per entry. Rows are allocated from one backing slice to keep
// the memory layout compact and allocation count low.
type bitmat struct {
	words int
	bits  []uint64
}

func newBitmat(rows, cols int) *bitmat {
	words := (cols + 63) / 64
	return &bitmat{words: words, bits: make([]uint64, rows*words)}
}

func (m *bitmat) row(i int) []uint64 {
	return m.bits[i*m.words : (i+1)*m.words]
}

func (m *bitmat) set(i, j int) {
	m.row(i)[j/64] |= 1 << (uint(j) % 64)
}

// setChanged sets bit (i, j) and reports whether it was clear.
func (m *bitmat) setChanged(i, j int) bool {
	w := &m.row(i)[j/64]
	bit := uint64(1) << (uint(j) % 64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

func (m *bitmat) get(i, j int) bool {
	return m.row(i)[j/64]&(1<<(uint(j)%64)) != 0
}

// orIntoChanged ors row src into row dst and reports whether dst
// gained any bit — the incremental closure's change-propagation test.
func (m *bitmat) orIntoChanged(dst, src int) bool {
	d := m.row(dst)
	s := m.row(src)
	var diff uint64
	for k := range d {
		old := d[k]
		nv := old | s[k]
		d[k] = nv
		diff |= old ^ nv
	}
	return diff != 0
}
