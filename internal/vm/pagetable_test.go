package vm

import (
	"fmt"
	"testing"

	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// TestDroppedPageRecyclesCold: a page dropped by munmap or ReleasePages and
// faulted in again — through the recycled entry — reads as zero and starts
// with every cache line invalid. Reading the line CPU 0 left dirty from
// CPU 1 must be a fresh fault and a memory fill, not a cache-to-cache
// transfer of the old contents.
func TestDroppedPageRecyclesCold(t *testing.T) {
	for _, tc := range []struct {
		name string
		// drop gives the page at addr back, leaving addr mapped again.
		drop func(th *sim.Thread, as *AddressSpace, addr uint64) error
	}{
		{"munmap", func(th *sim.Thread, as *AddressSpace, addr uint64) error {
			if err := as.Munmap(th, addr, PageSize); err != nil {
				return err
			}
			if again, err := as.Mmap(th, PageSize, "again"); err != nil || again != addr {
				return fmt.Errorf("remap = (0x%x, %v), want first-fit 0x%x", again, err, addr)
			}
			return nil
		}},
		{"release", func(th *sim.Thread, as *AddressSpace, addr uint64) error {
			if n := as.ReleasePages(th, addr, PageSize); n != PageSize {
				return fmt.Errorf("released %d bytes, want one page", n)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, c := testSetup(2)
			as := New(1, m, c)
			err := m.Run(func(main *sim.Thread) {
				main.Pin(0)
				main.Yield()
				addr, err := as.Mmap(main, PageSize, "dirty")
				if err != nil {
					t.Errorf("mmap: %v", err)
					return
				}
				as.Write32(main, addr+64, 0xfeedface)
				if err := tc.drop(main, as, addr); err != nil {
					t.Error(err)
					return
				}
				if len(as.spare) != 1 {
					t.Errorf("%d spare entries after dropping one page, want 1", len(as.spare))
				}
				reader := main.Spawn("reader", func(th *sim.Thread) {
					th.Pin(1)
					th.Yield()
					if th.CPU() != 1 {
						t.Errorf("reader on CPU %d, want 1", th.CPU())
						return
					}
					before := as.Stats()
					if v := as.Read32(th, addr+64); v != 0 {
						t.Errorf("recycled page read 0x%x, want 0", v)
					}
					after := as.Stats()
					if d := after.MinorFaults - before.MinorFaults; d != 1 {
						t.Errorf("%d minor faults on the read, want 1", d)
					}
					if after.FillRemote != before.FillRemote+1 || after.FillC2C != before.FillC2C {
						t.Errorf("fills: memory %d -> %d, cache-to-cache %d -> %d; want one memory fill",
							before.FillRemote, after.FillRemote, before.FillC2C, after.FillC2C)
					}
				})
				main.Join(reader)
				if len(as.spare) != 0 {
					t.Errorf("%d spare entries after the refault, want 0", len(as.spare))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// findFreeRescan is the reference first-fit search: restart the VMA scan
// from the lowest mapping after every jump.
func findFreeRescan(vmas []VMA, hint, limit, length uint64) uint64 {
	addr := hint
	for addr+length <= limit {
		conflict := false
		for _, v := range vmas {
			if addr < v.End && v.Start < addr+length {
				addr = pageCeil(v.End)
				conflict = true
				break
			}
		}
		if !conflict {
			return addr
		}
	}
	return 0
}

// munmapRebuild is the reference munmap edit: rebuild the whole list,
// keeping the pieces of anon and stack VMAs outside [addr, end) and every
// other VMA whole. It returns the new list and the bytes removed.
func munmapRebuild(vmas []VMA, addr, end uint64) ([]VMA, uint64) {
	var out []VMA
	removed := uint64(0)
	for _, v := range vmas {
		if v.End <= addr || v.Start >= end || (v.Kind != KindAnon && v.Kind != KindStack) {
			out = append(out, v)
			continue
		}
		if v.Start < addr {
			out = append(out, VMA{Start: v.Start, End: addr, Kind: v.Kind, Name: v.Name, Node: v.Node})
		}
		if v.End > end {
			out = append(out, VMA{Start: end, End: v.End, Kind: v.Kind, Name: v.Name, Node: v.Node})
		}
		removed += minU64(v.End, end) - maxU64(v.Start, addr)
	}
	return out, removed
}

// randomLayout builds a sorted, non-overlapping VMA list: the standard
// image with an unaligned brk end, then runs of anon mappings above the
// library whose gaps are often exactly one page short of want.
func randomLayout(r *xrand.RNG, want uint64) []VMA {
	brkEnd := DataBase + uint64(1+r.Intn(4*PageSize))
	vmas := []VMA{
		{Start: TextBase, End: TextBase + 0x60000, Kind: KindText, Name: "text", Node: -1},
		{Start: DataBase, End: brkEnd, Kind: KindBrk, Name: "brk", Node: -1},
		{Start: LibBase, End: LibBase + LibSize, Kind: KindLib, Name: "libc.so", Node: -1},
	}
	addr := uint64(MmapBase)
	for i := 0; i < 30; i++ {
		switch r.Intn(3) {
		case 0: // adjacent
		case 1:
			addr += want - PageSize // one page too small
		default:
			addr += uint64(r.Intn(6)) * PageSize
		}
		n := uint64(1+r.Intn(8)) * PageSize
		vmas = append(vmas, VMA{Start: addr, End: addr + n, Kind: KindAnon, Name: "m", Node: -1})
		addr += n
	}
	return vmas
}

// TestFindFreeMatchesRescan: the forward walk from a binary search returns
// the same first fit as restarting the scan after every jump — from the
// mmap base, from below an unaligned brk end, and with the region
// exhausted.
func TestFindFreeMatchesRescan(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c)
	r := xrand.New(11, 0)
	for trial := 0; trial < 500; trial++ {
		want := uint64(1+r.Intn(4)) * PageSize
		as.vmas = randomLayout(r, want)
		last := as.vmas[len(as.vmas)-1].End
		as.mmapHint = MmapBase
		if r.Intn(4) == 0 {
			as.mmapHint = DataBase // walk across the brk VMA's unaligned end
		}
		// The limit lands anywhere from inside the mappings (often
		// exhausting the region) to well above them.
		as.stackHint = last - 20*PageSize + uint64(r.Intn(100))*PageSize
		limit := as.stackHint - 64*PageSize
		got := as.findFree(want)
		if ref := findFreeRescan(as.vmas, as.mmapHint, limit, want); got != ref {
			t.Fatalf("trial %d: findFree(%d) = 0x%x, rescan = 0x%x (hint 0x%x, limit 0x%x)",
				trial, want, got, ref, as.mmapHint, limit)
		}
	}
	// Exhausted: no gap anywhere below the limit.
	as.vmas = []VMA{{Start: MmapBase, End: MmapBase + 8*PageSize, Kind: KindAnon, Node: -1}}
	as.mmapHint = MmapBase
	as.stackHint = MmapBase + 70*PageSize
	if got := as.findFree(PageSize); got != 0 {
		t.Fatalf("findFree in an exhausted region = 0x%x, want 0", got)
	}
}

// TestMunmapMatchesRebuild: the in-place splice leaves the same list as
// rebuilding it, for a hole inside one VMA, a range spanning several VMAs
// and gaps, a range covering a VMA munmap must keep, and random ranges.
func TestMunmapMatchesRebuild(t *testing.T) {
	const p = PageSize
	base := uint64(MmapBase)
	fixed := []VMA{
		{Start: TextBase, End: TextBase + 0x60000, Kind: KindText, Name: "text", Node: -1},
		{Start: DataBase, End: DataBase + 100, Kind: KindBrk, Name: "brk", Node: -1},
		{Start: LibBase, End: LibBase + LibSize, Kind: KindLib, Name: "libc.so", Node: -1},
		{Start: base, End: base + 8*p, Kind: KindAnon, Name: "a", Node: 1},
		{Start: base + 9*p, End: base + 12*p, Kind: KindAnon, Name: "b", Node: -1},
		{Start: base + 12*p, End: base + 14*p, Kind: KindData, Name: "keep", Node: -1},
		{Start: base + 14*p, End: base + 20*p, Kind: KindStack, Name: "c", Node: -1},
		{Start: base + 22*p, End: base + 23*p, Kind: KindAnon, Name: "d", Node: -1},
	}
	type span struct {
		name      string
		addr, len uint64
	}
	cases := []span{
		{"hole in one VMA", base + 2*p, 3 * p},
		{"several VMAs and gaps", base + 6*p, 9 * p},
		{"covers a kept VMA", base + 10*p, 6 * p},
		{"whole list tail", base, 30 * p},
	}
	r := xrand.New(5, 0)
	for i := 0; i < 200; i++ {
		cases = append(cases, span{"random", base + uint64(r.Intn(24))*p, uint64(1+r.Intn(12)) * p})
	}
	for _, tc := range cases {
		wantList, removed := munmapRebuild(fixed, tc.addr, tc.addr+tc.len)
		runAS(t, func(th *sim.Thread, as *AddressSpace) {
			as.vmas = append([]VMA(nil), fixed...)
			err := as.Munmap(th, tc.addr, tc.len)
			if (err == nil) != (removed > 0) {
				t.Errorf("%s: munmap error %v, rebuild removed %d bytes", tc.name, err, removed)
			}
			if removed == 0 {
				wantList = fixed
			}
			if len(as.vmas) != len(wantList) {
				t.Errorf("%s [0x%x,+%d): %d VMAs, rebuild gives %d\n got %+v\nwant %+v",
					tc.name, tc.addr, tc.len, len(as.vmas), len(wantList), as.vmas, wantList)
			}
			for i := range wantList {
				if as.vmas[i] != wantList[i] {
					t.Errorf("%s [0x%x,+%d): VMA %d = %+v, rebuild gives %+v",
						tc.name, tc.addr, tc.len, i, as.vmas[i], wantList[i])
					return
				}
			}
		})
	}
}

// TestPageTableLeafEdges: the last page of one leaf and the first page of
// the next hold their own bytes, count as resident and release and drop
// independently; the top stack page (the last entry of its leaf) faults in
// once and reads zero.
func TestPageTableLeafEdges(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		top, err := as.AllocStack(th, "edge-stack")
		if err != nil {
			t.Error(err)
			return
		}
		idx := (top - 1) / PageSize
		if idx%leafSize != leafSize-1 {
			t.Errorf("top stack page %d is not the last of its leaf", idx)
		}
		pg := as.table.get(idx)
		if pg == nil {
			t.Error("top stack page not resident after AllocStack")
			return
		}
		if pg.data != nil {
			t.Error("top stack page touched with zeros holds host bytes")
		}
		faults := as.Stats().MinorFaults
		if got := as.Read64(th, top-8); got != 0 || as.Stats().MinorFaults != faults {
			t.Errorf("top stack page read %d with %d new faults, want 0 and none", got, as.Stats().MinorFaults-faults)
		}
		// MmapBase starts a leaf, so the region's pages leafSize-1 and
		// leafSize straddle a leaf boundary.
		base, err := as.Mmap(th, (leafSize+1)*PageSize, "edge")
		if err != nil || base%(leafSize*PageSize) != 0 {
			t.Errorf("mmap = (0x%x, %v), want a leaf-aligned region", base, err)
			return
		}
		last, first := base+(leafSize-1)*PageSize, base+leafSize*PageSize
		as.Write32(th, last+PageSize-4, 0x11223344)
		as.Write32(th, first, 0x55667788)
		if got := as.Read32(th, last+PageSize-4); got != 0x11223344 {
			t.Errorf("last page of the leaf read 0x%x", got)
		}
		if got := as.Peek32(first); got != 0x55667788 {
			t.Errorf("first page of the next leaf peeked 0x%x", got)
		}
		if st := as.Stats(); st.PagesPresent != 3 {
			t.Errorf("PagesPresent = %d, want the two edge pages and the stack page", st.PagesPresent)
		}
		if n := as.ResidentBytesIn(last, first+PageSize); n != 2*PageSize {
			t.Errorf("ResidentBytesIn across the boundary = %d, want %d", n, 2*PageSize)
		}
		if n := as.ReleasePages(th, first, PageSize); n != PageSize {
			t.Errorf("released %d bytes, want one page", n)
		}
		if !as.table.released(first/PageSize) || as.table.released(last/PageSize) {
			t.Error("release marked the wrong side of the leaf boundary")
		}
		if got := as.Peek32(last + PageSize - 4); got != 0x11223344 {
			t.Errorf("releasing the next leaf's page lost 0x%x from the last page", got)
		}
		if err := as.Munmap(th, base, (leafSize+1)*PageSize); err != nil {
			t.Error(err)
			return
		}
		if st := as.Stats(); st.PagesPresent != 1 || as.table.released(first/PageSize) {
			t.Errorf("after munmap: PagesPresent = %d, released bit %v", st.PagesPresent, as.table.released(first/PageSize))
		}

	})
}

// TestAccessBeyondTableFaults: a page index past the 32-bit space's 2^20
// pages is absent from the table, so an access there panics vm.Fault like
// any unmapped address and a peek reads zero.
func TestAccessBeyondTableFaults(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		for _, tc := range []struct {
			op     string
			access func()
		}{
			{"read32", func() { as.Read32(th, 1<<32) }},
			{"write8", func() { as.Write8(th, 1<<32+5, 1) }},
			{"release-unmapped", func() { as.ReleasePages(th, 1<<32, PageSize) }},
		} {
			func() {
				defer func() {
					f, ok := recover().(Fault)
					if !ok || f.Addr>>32 != 1 || f.Op != tc.op {
						t.Errorf("%s at 1<<32 panicked %+v, want a vm.Fault", tc.op, f)
					}
				}()
				tc.access()
			}()
		}
		if as.Peek32(1<<32) != 0 || as.Peek8(1<<40) != 0 {
			t.Error("peek beyond the table read nonzero")
		}
		if as.Stats().PagesPresent != 0 {
			t.Error("a faulting access left a page resident")
		}
	})
}

// commitStep is one step of a scripted mapping sequence, with the
// CommittedBytes, Refaults and PagesPresent it leaves behind (recorded
// before the page table replaced the page and release maps) and the pages
// of the brk segment and region A that are released afterwards.
type commitStep struct {
	name                         string
	do                           func(th *sim.Thread, as *AddressSpace, a uint64)
	committed, refaults, present uint64
	brkReleased, aReleased       []uint64
}

// TestReleasedBitsAndCommitScript: release bits survive ReleasePages, clear
// on refault, munmap and brk shrink, and a remap of an unmapped released
// page first-touches instead of refaulting. The commit meter follows the
// recorded sequence step by step.
func TestReleasedBitsAndCommitScript(t *testing.T) {
	const P = PageSize
	a := uint64(MmapBase)
	steps := []commitStep{
		{"sbrk 6 pages, touch all", func(th *sim.Thread, as *AddressSpace, a uint64) {
			base, _ := as.Sbrk(th, 6*P)
			for i := uint64(0); i < 6; i++ {
				as.Write8(th, base+i*P, 1)
			}
		}, 6 * P, 0, 6, nil, nil},
		{"release brk pages 1-3", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.ReleasePages(th, DataBase+P, 3*P)
		}, 3 * P, 0, 3, []uint64{1, 2, 3}, nil},
		{"mmap A of 10 pages, touch all", func(th *sim.Thread, as *AddressSpace, a uint64) {
			if got, _ := as.Mmap(th, 10*P, "A"); got != a {
				t.Errorf("A mapped at 0x%x, want 0x%x", got, a)
			}
			for i := uint64(0); i < 10; i++ {
				as.Write8(th, a+i*P, 2)
			}
		}, 13 * P, 0, 13, []uint64{1, 2, 3}, nil},
		{"release A pages 2-7", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.ReleasePages(th, a+2*P, 6*P)
		}, 7 * P, 0, 7, []uint64{1, 2, 3}, []uint64{2, 3, 4, 5, 6, 7}},
		{"refault A page 3", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.Read8(th, a+3*P)
		}, 8 * P, 1, 8, []uint64{1, 2, 3}, []uint64{2, 4, 5, 6, 7}},
		{"munmap A pages 0-4", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.Munmap(th, a, 5*P)
		}, 5 * P, 1, 5, []uint64{1, 2, 3}, []uint64{5, 6, 7}},
		{"shrink brk by 4 pages", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.Sbrk(th, -4*P)
		}, 3 * P, 1, 3, []uint64{1}, []uint64{5, 6, 7}},
		{"munmap A pages 5-9", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.Munmap(th, a+5*P, 5*P)
		}, 1 * P, 1, 1, []uint64{1}, nil},
		{"remap A, touch page 6", func(th *sim.Thread, as *AddressSpace, a uint64) {
			as.Mmap(th, 10*P, "A again")
			as.Write8(th, a+6*P, 3)
		}, 11 * P, 1, 2, []uint64{1}, nil},
	}
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		for _, s := range steps {
			s.do(th, as, a)
			st := as.Stats()
			if st.CommittedBytes != s.committed || st.Refaults != s.refaults || st.PagesPresent != s.present {
				t.Errorf("%s: committed %d refaults %d present %d, want %d %d %d", s.name,
					st.CommittedBytes, st.Refaults, st.PagesPresent, s.committed, s.refaults, s.present)
			}
			for _, r := range []struct {
				base uint64
				want []uint64
			}{{DataBase, s.brkReleased}, {a, s.aReleased}} {
				var got []uint64
				for i := uint64(0); i < 10; i++ {
					if as.table.released(r.base/PageSize + i) {
						got = append(got, i)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(r.want) {
					t.Errorf("%s: released pages at 0x%x = %v, want %v", s.name, r.base, got, r.want)
				}
			}
		}
	})
}

// TestResidentCountsMatchWalk: on a 2-node machine the table's resident
// counts, which Stats reports, equal a full walk of its entries after every
// step of a seeded random mmap/touch/release/munmap sequence.
func TestResidentCountsMatchWalk(t *testing.T) {
	m, as := numaSetup(2, 2)
	r := xrand.New(7, 0)
	err := m.Run(func(th *sim.Thread) {
		type region struct{ addr, pages uint64 }
		var live []region
		for step := 0; step < 400; step++ {
			// Each step runs on a random node, so first touches home pages on
			// both.
			th.Pin(r.Intn(2))
			th.Yield()
			switch op := r.Intn(4); {
			case op == 0 || len(live) == 0:
				pages := uint64(1 + r.Intn(2*leafSize))
				node := r.Intn(3) - 1 // -1 is first touch
				addr, err := as.MmapOnNode(th, pages*PageSize, "rand", node)
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, region{addr, pages})
			case op == 1:
				g := live[r.Intn(len(live))]
				for i := 0; i < 8; i++ {
					as.Write8(th, g.addr+uint64(r.Intn(int(g.pages)))*PageSize, byte(i))
				}
			case op == 2:
				g := live[r.Intn(len(live))]
				lo := uint64(r.Intn(int(g.pages)))
				as.ReleasePages(th, g.addr+lo*PageSize, uint64(1+r.Intn(int(g.pages-lo)))*PageSize)
			default:
				i := r.Intn(len(live))
				if err := as.Munmap(th, live[i].addr, live[i].pages*PageSize); err != nil {
					t.Error(err)
					return
				}
				live = append(live[:i], live[i+1:]...)
			}
			var present uint64
			walk := make([]uint64, 2)
			for _, l := range as.table.dir {
				if l == nil {
					continue
				}
				for _, pg := range l.pages {
					if pg != nil {
						present++
						walk[pg.node] += PageSize
					}
				}
			}
			st := as.Stats()
			if st.PagesPresent != present || st.ResidentBytes != present*PageSize ||
				fmt.Sprint(st.NodeResidentBytes) != fmt.Sprint(walk) {
				t.Errorf("step %d: Stats has %d pages %v per node, the walk %d pages %v",
					step, st.PagesPresent, st.NodeResidentBytes, present, walk)
				return
			}
		}
		if walk := as.Stats().NodeResidentBytes; walk[0] == 0 || walk[1] == 0 {
			t.Errorf("sequence left pages on one node only: %v", walk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroPageBacking: a page written only with zeros holds no host bytes
// and reads 0 through Read* and Peek*; a later nonzero store allocates its
// bytes and holds. A dropped page's entry, recycled for a later fault, reads
// 0 everywhere it was written.
func TestZeroPageBacking(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		addr, err := as.Mmap(th, PageSize, "zero")
		if err != nil {
			t.Error(err)
			return
		}
		as.Write64(th, addr+16, 0)
		as.Write8(th, addr+100, 0)
		pg := as.table.get(addr / PageSize)
		if pg == nil || pg.data != nil {
			t.Errorf("page after zero stores: %+v, want resident without bytes", pg)
			return
		}
		if as.Read64(th, addr+16) != 0 || as.Read8(th, addr+100) != 0 || as.Peek32(addr+16) != 0 || as.Peek8(addr+100) != 0 {
			t.Error("zero-backed page read nonzero")
		}
		if faults := as.Stats().MinorFaults; faults != 1 {
			t.Errorf("%d minor faults, want the one first touch", faults)
		}
		as.Write32(th, addr+16, 0xcafef00d)
		as.Write8(th, addr+100, 0x5a)
		as.Write32(th, addr+20, 0) // a zero store into allocated bytes
		if pg.data == nil {
			t.Error("nonzero store left the page without bytes")
			return
		}
		if as.Read32(th, addr+16) != 0xcafef00d || as.Peek8(addr+100) != 0x5a || as.Read32(th, addr+20) != 0 {
			t.Error("page lost a store after leaving the zero page")
		}
		if err := as.Munmap(th, addr, PageSize); err != nil {
			t.Error(err)
			return
		}
		again, err := as.Mmap(th, PageSize, "recycled")
		if err != nil || again != addr {
			t.Errorf("remap = (0x%x, %v), want 0x%x", again, err, addr)
			return
		}
		if as.Read8(th, again) != 0 || as.table.get(again/PageSize) != pg {
			t.Error("the refault did not recycle the dropped entry")
			return
		}
		if as.Read32(th, again+16) != 0 || as.Peek8(again+100) != 0 {
			t.Error("recycled spare read stale bytes")
		}
	})
}

// BenchmarkMunmapChurn maps, touches and unmaps 40-page regions: the
// 160 KB mmap path's page-table work per fault and per munmap.
func BenchmarkMunmapChurn(b *testing.B) {
	m, c := testSetup(1)
	as := New(1, m, c)
	b.ReportAllocs()
	err := m.Run(func(th *sim.Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr, err := as.Mmap(th, 40*PageSize, "churn")
			if err != nil {
				b.Error(err)
				return
			}
			as.Write32(th, addr, uint32(i)|1)
			for p := uint64(1); p < 40; p++ {
				as.Touch(th, addr+p*PageSize)
			}
			if err := as.Munmap(th, addr, 40*PageSize); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
