package cache

import (
	"testing"
	"testing/quick"

	"mtmalloc/internal/xrand"
)

func newTest() *Model { return NewModel(4, 5, DefaultCosts()) }

// access charges one access by cpu to line idx of ls and returns its cost.
func access(m *Model, cpu int, ls *Lines, idx int, write bool) int64 {
	c, _, _ := m.AccessLine(cpu, ls, idx, write)
	return c
}

func TestColdReadThenHit(t *testing.T) {
	m := newTest()
	var ls Lines
	if c := access(m, 0, &ls, 0, false); c != m.costs.MissMemory {
		t.Fatalf("cold read cost %d, want %d", c, m.costs.MissMemory)
	}
	if c := access(m, 0, &ls, 0, false); c != m.costs.Hit {
		t.Fatalf("second read cost %d, want hit", c)
	}
	st := m.Stats()[0]
	if st.ColdMisses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteThenWriteHit(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 1, &ls, 2, true)
	if c := access(m, 1, &ls, 2, true); c != m.costs.Hit {
		t.Fatalf("owned write cost %d, want hit", c)
	}
}

func TestUpgradeFromSoleSharer(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 2, &ls, 4, false) // cold read, sole clean copy
	if c := access(m, 2, &ls, 4, true); c != m.costs.Upgrade {
		t.Fatalf("upgrade cost %d, want %d", c, m.costs.Upgrade)
	}
}

func TestRemoteDirtyReadTransfers(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 0, &ls, 6, true) // cpu0 owns dirty
	c, fill, from := m.AccessLine(1, &ls, 6, false)
	if c != m.costs.MissRemote || fill != FillCache || from != 0 {
		t.Fatalf("remote read = (%d, %v, %d), want (%d, FillCache, 0)", c, fill, from, m.costs.MissRemote)
	}
	// Both now share it clean: reads hit on both.
	if c := access(m, 0, &ls, 6, false); c != m.costs.Hit {
		t.Fatalf("previous owner read cost %d, want hit", c)
	}
	if c := access(m, 1, &ls, 6, false); c != m.costs.Hit {
		t.Fatalf("new sharer read cost %d, want hit", c)
	}
}

func TestPingPongWrites(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 0, &ls, 8, true)
	flips := m.OwnerFlips
	for i := 0; i < 10; i++ {
		cpu := i % 2
		c := access(m, cpu, &ls, 8, true)
		if i == 0 && cpu == 0 {
			continue
		}
		if c != m.costs.MissRemote && c != m.costs.Hit {
			t.Fatalf("iteration %d cost %d", i, c)
		}
	}
	if m.OwnerFlips < flips+9 {
		t.Fatalf("OwnerFlips = %d, want alternating ownership", m.OwnerFlips)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 0, &ls, 10, false)
	access(m, 1, &ls, 10, false)
	access(m, 2, &ls, 10, false)
	access(m, 3, &ls, 10, true) // had no copy; others shared clean
	st := m.Stats()
	if st[0].Invalidated != 1 || st[1].Invalidated != 1 || st[2].Invalidated != 1 {
		t.Fatalf("invalidations not charged: %+v", st)
	}
	// After the write, a read by 0 misses again.
	if c := access(m, 0, &ls, 10, false); c == m.costs.Hit {
		t.Fatal("stale sharer still hit after invalidation")
	}
}

// Two directories (two pages, or one address in two spaces) never share
// state: the same line index in each is an independent line.
func TestSpacesDoNotInterfere(t *testing.T) {
	m := newTest()
	var a, b Lines
	access(m, 0, &a, 0, true)
	access(m, 1, &b, 0, true)
	// Each CPU still owns its own directory's line: both write-hit.
	if c := access(m, 0, &a, 0, true); c != m.costs.Hit {
		t.Fatalf("first directory lost ownership: cost %d", c)
	}
	if c := access(m, 1, &b, 0, true); c != m.costs.Hit {
		t.Fatalf("second directory lost ownership: cost %d", c)
	}
}

// Reset returns a directory to all-invalid while keeping its groups.
func TestResetForgetsLines(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 0, &ls, 127, true)
	g := ls.groups[127/groupLines]
	ls.Reset()
	if ls.groups[127/groupLines] != g {
		t.Fatal("Reset dropped an allocated group")
	}
	if c, fill, _ := m.AccessLine(1, &ls, 127, false); c != m.costs.MissMemory || fill != FillMemory {
		t.Fatalf("reset line read = (%d, %v), want a cold memory fill", c, fill)
	}
}

// Groups are allocated on first touch only.
func TestGroupsAllocatedLazily(t *testing.T) {
	m := newTest()
	var ls Lines
	access(m, 0, &ls, 17, false)
	for i, g := range ls.groups {
		if (g != nil) != (i == 1) {
			t.Fatalf("group %d allocated = %v after touching line 17 only", i, g != nil)
		}
	}
}

func TestSteadyWriteCost(t *testing.T) {
	m := newTest()
	if m.SteadyWriteCost(0) != m.costs.Hit || m.SteadyWriteCost(1) != m.costs.Hit {
		t.Fatal("solo writer must pay hit cost")
	}
	two := m.SteadyWriteCost(2)
	four := m.SteadyWriteCost(4)
	if two <= m.costs.Hit {
		t.Fatal("two writers must cost more than a hit")
	}
	if four <= two {
		t.Fatal("more writers must not get cheaper")
	}
	if four > m.costs.Hit+m.costs.MissRemote {
		t.Fatal("steady cost exceeds one remote transfer per write")
	}
}

// Property: after any access sequence, a line has at most one dirty owner,
// and an owner is always in the sharer set implied by the state encoding.
func TestSingleOwnerInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		m := newTest()
		r := xrand.New(seed, 0)
		var ls [2]Lines
		idxs := []int{0, 1, 2, 16, 255}
		for i := 0; i < 2000; i++ {
			access(m, r.Intn(4), &ls[r.Intn(2)], idxs[r.Intn(len(idxs))], r.Intn(2) == 0)
		}
		for _, l := range ls {
			for _, g := range l.groups {
				if g == nil {
					continue
				}
				for i, o := range g.owner {
					if o != 0 && g.sharers[i] != 1<<uint(o-1) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost of any single access is one of the four model constants.
func TestCostsAreFromModel(t *testing.T) {
	m := newTest()
	r := xrand.New(7, 7)
	valid := map[int64]bool{
		m.costs.Hit: true, m.costs.MissMemory: true,
		m.costs.MissRemote: true, m.costs.Upgrade: true,
	}
	var ls Lines
	for i := 0; i < 5000; i++ {
		c := access(m, r.Intn(4), &ls, r.Intn(8), r.Intn(2) == 0)
		if !valid[c] {
			t.Fatalf("access returned unknown cost %d", c)
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	m := newTest()
	var ls Lines
	m.AccessLine(0, &ls, 0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccessLine(0, &ls, 0, true)
	}
}

func BenchmarkAccessPingPong(b *testing.B) {
	m := newTest()
	var ls Lines
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccessLine(i%2, &ls, 0, true)
	}
}
