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
