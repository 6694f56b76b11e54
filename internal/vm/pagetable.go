package vm

// The page table is a two-level radix table over the 32-bit space's 2^20
// pages: a directory of dirSize slots, each pointing to a lazily allocated
// leaf that covers leafSize consecutive pages. A page index beyond the
// table is simply absent, so an access there faults like any unmapped one.
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirSize  = 1 << 10
	maxPages = dirSize * leafSize
)

// leaf holds the entries of leafSize consecutive pages and one released bit
// per page: set by ReleasePages, cleared by munmap, brk shrink and refault.
type leaf struct {
	pages    [leafSize]*page
	released [leafSize / 64]uint64
}

// pageTable maps page numbers to resident entries. It counts the resident
// pages, in total and per home node, as they fault in and drop, so Stats
// never walks the entries.
type pageTable struct {
	dir       [dirSize]*leaf
	resident  uint64
	nodePages []uint64 // resident pages per home node
}

// leafOf returns the leaf covering page idx, or nil if none exists yet.
func (pt *pageTable) leafOf(idx uint64) *leaf {
	if idx >= maxPages {
		return nil
	}
	return pt.dir[idx>>leafBits]
}

// get returns page idx's entry, or nil if the page is not resident.
func (pt *pageTable) get(idx uint64) *page {
	l := pt.leafOf(idx)
	if l == nil {
		return nil
	}
	return l.pages[idx&(leafSize-1)]
}

// set installs pg as page idx's entry; the page must not be resident.
func (pt *pageTable) set(idx uint64, pg *page) {
	l := pt.dir[idx>>leafBits]
	if l == nil {
		l = new(leaf)
		pt.dir[idx>>leafBits] = l
	}
	l.pages[idx&(leafSize-1)] = pg
	pt.resident++
	pt.nodePages[pg.node]++
}

// take removes and returns page idx's entry, or nil if it was not resident.
func (pt *pageTable) take(idx uint64) *page {
	l := pt.leafOf(idx)
	if l == nil {
		return nil
	}
	pg := l.pages[idx&(leafSize-1)]
	if pg != nil {
		l.pages[idx&(leafSize-1)] = nil
		pt.resident--
		pt.nodePages[pg.node]--
	}
	return pg
}

// released reports whether ReleasePages handed page idx back while its
// mapping stayed: its next touch is a refault, not a first touch.
func (pt *pageTable) released(idx uint64) bool {
	l := pt.leafOf(idx)
	return l != nil && l.released[idx&(leafSize-1)/64]&(1<<(idx%64)) != 0
}

// setReleased marks page idx released; its leaf exists because the page was
// resident until now.
func (pt *pageTable) setReleased(idx uint64) {
	pt.dir[idx>>leafBits].released[idx&(leafSize-1)/64] |= 1 << (idx % 64)
}

// clearReleased forgets page idx's release.
func (pt *pageTable) clearReleased(idx uint64) {
	if l := pt.leafOf(idx); l != nil {
		l.released[idx&(leafSize-1)/64] &^= 1 << (idx % 64)
	}
}
