package sim

// Tile memory is zero-initialised and materialised per page: a page is
// allocated on the first write into it, and reads of a page never
// written return 0 without allocating. A machine therefore costs host
// memory only for the pages its programs, data and results touch —
// an 8×8 machine holds 96 MiB of architectural SRAM, of which a graph
// workload writes a few hundred KiB.
const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 4
)

// page is one materialised 4 KiB page, stored as little-endian words.
type page [pageWords]uint32

// pagedMem is one SRAM array — a core's private memory, a shared bank,
// or a dead tile's shadow window — addressed by byte offset. Callers
// bounds-check offsets against size; data accesses are word-aligned.
type pagedMem struct {
	size  uint32
	pages []*page
}

// newPagedMem returns size bytes of zeroed memory with no page
// allocated.
func newPagedMem(size int) pagedMem {
	return pagedMem{size: uint32(size), pages: make([]*page, (size+pageBytes-1)/pageBytes)}
}

// load32 reads the aligned word at off.
func (m *pagedMem) load32(off uint32) uint32 {
	if p := m.pages[off>>pageShift]; p != nil {
		return p[off&(pageBytes-1)>>2]
	}
	return 0
}

// store32 writes the aligned word at off.
func (m *pagedMem) store32(off, v uint32) { *m.word(off) = v }

// word returns the aligned word at off for read-modify-write,
// materialising its page.
func (m *pagedMem) word(off uint32) *uint32 {
	p := m.pages[off>>pageShift]
	if p == nil {
		p = new(page)
		m.pages[off>>pageShift] = p
	}
	return &p[off&(pageBytes-1)>>2]
}

// fetch32 reads the little-endian word starting at any byte offset off
// (off+4 <= size): instruction fetch follows the PC, which a jump may
// leave unaligned.
func (m *pagedMem) fetch32(off uint32) uint32 {
	sh := off & 3 * 8
	if sh == 0 {
		return m.load32(off)
	}
	base := off &^ 3
	return m.load32(base)>>sh | m.load32(base+4)<<(32-sh)
}

// clone deep-copies the materialised pages; unmaterialised pages stay
// unallocated in the copy.
func (m *pagedMem) clone() pagedMem {
	n := pagedMem{size: m.size, pages: make([]*page, len(m.pages))}
	for i, p := range m.pages {
		if p != nil {
			cp := *p
			n.pages[i] = &cp
		}
	}
	return n
}
