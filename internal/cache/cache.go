// Package cache models the CPU cache hierarchy of a small SMP at the level
// the paper's benchmarks care about: which CPU's cache holds which line, in
// what coherence state, and what each access costs in cycles.
//
// The model is a MESI-lite directory. Each line is either invalid
// everywhere, shared (clean) by a set of CPUs, or owned (dirty) by exactly
// one CPU. Capacity and conflict misses are not modelled — the paper's
// workloads have footprints far below the 512 KB L2 caches of the test
// machines — so every miss is a cold or coherence miss. That makes the model
// exact for the false-sharing experiment (benchmark 3) and a good
// approximation for allocator-metadata "cache sloshing".
//
// The Model prices accesses and keeps the per-CPU statistics; the directory
// state lives in a Lines value owned by each resident page of the vm layer.
// Because every address space owns its own pages, two processes never
// generate coherence traffic against one another even when their heaps use
// identical virtual addresses; this is precisely the asymmetry benchmark 1
// measures between the two-thread and two-process configurations. Unmapping
// a page drops its lines with it, so recycled addresses start cold.
package cache

// Costs is the per-access cycle cost model.
type Costs struct {
	Hit        int64 // line present in this CPU's cache in a usable state
	MissMemory int64 // cold miss or clean miss served from memory
	MissRemote int64 // miss served by another CPU's dirty copy (cache-to-cache)
	Upgrade    int64 // write to a line held shared: invalidate others, no data transfer
}

// DefaultCosts returns constants in the right ratios for a late-1990s
// Intel SMP (L1 hit a couple of cycles, memory tens of cycles, dirty remote
// transfers slightly worse than memory).
func DefaultCosts() Costs {
	return Costs{Hit: 2, MissMemory: 40, MissRemote: 60, Upgrade: 12}
}

// line is the directory state of one cache line, unpacked.
type line struct {
	owner   int8   // CPU with the dirty copy, -1 if none
	sharers uint64 // bitmask of CPUs with a readable copy
}

// groupLines is how many consecutive lines one lineGroup covers, and
// maxLines how many a Lines covers: one 4 KB page at the 16-byte minimum
// line size NewModel accepts.
const (
	groupLines = 16
	maxLines   = 256
)

// lineGroup is the directory state of groupLines consecutive lines. Owners
// and sharers sit in separate arrays, which packs a group to 9 bytes per
// line. The zero group is all lines invalid everywhere.
type lineGroup struct {
	owner   [groupLines]int8   // CPU with the dirty copy plus one, 0 if none
	sharers [groupLines]uint64 // bitmask of CPUs with a readable copy
}

// Lines is the coherence directory of one page's lines. Its owner (the vm
// layer's page entry) decides which lines it covers, so two pages — and two
// address spaces — never share state; dropping the page drops its lines.
// Groups are allocated on first access; the zero Lines is all invalid.
type Lines struct {
	groups [maxLines / groupLines]*lineGroup
}

// Reset returns every line to invalid, keeping the allocated groups for
// reuse.
func (ls *Lines) Reset() {
	for _, g := range ls.groups {
		if g != nil {
			*g = lineGroup{}
		}
	}
}

// CPUStats aggregates access outcomes per CPU.
type CPUStats struct {
	Hits         uint64
	ColdMisses   uint64
	RemoteMisses uint64 // served from another CPU's dirty line
	Upgrades     uint64
	Invalidated  uint64 // lines this CPU lost to another CPU's write
}

// Model prices accesses for one machine and keeps its per-CPU statistics.
// The directory state itself lives in the Lines its callers own.
type Model struct {
	shift uint
	costs Costs

	stats []CPUStats

	// OwnerFlips counts transitions of dirty ownership between distinct
	// CPUs: the "ping-pong" statistic.
	OwnerFlips uint64
}

// NewModel creates a model for numCPUs CPUs and 2^lineShift-byte lines.
func NewModel(numCPUs int, lineShift uint, costs Costs) *Model {
	if numCPUs < 1 || numCPUs > 64 {
		panic("cache: unsupported CPU count")
	}
	if lineShift < 4 || lineShift > 12 {
		panic("cache: unreasonable line size")
	}
	return &Model{
		shift: lineShift,
		costs: costs,
		stats: make([]CPUStats, numCPUs),
	}
}

// LineSize returns the modelled cache line size in bytes.
func (m *Model) LineSize() uint64 { return 1 << m.shift }

// Costs returns the cost model.
func (m *Model) Costs() Costs { return m.costs }

// Fill classifies where an access's data came from, for callers that price
// the interconnect distance of the fill (the vm layer's NUMA surcharge).
type Fill int

const (
	FillNone   Fill = iota // hit or upgrade: no data transfer
	FillMemory             // served from memory (cold or clean miss)
	FillCache              // served from another CPU's dirty copy
)

// AccessLine charges one read or write by cpu against line idx of ls,
// updating its directory state. It returns the cost in cycles and the fill
// classification: where the data came from, and — for cache-to-cache
// transfers — which CPU supplied it (-1 otherwise). The vm layer uses the
// pair to decide whether a fill crossed a NUMA node boundary: a memory fill
// travels from the page's home node, a cache-to-cache fill from the supplier
// CPU's node.
func (m *Model) AccessLine(cpu int, ls *Lines, idx int, write bool) (int64, Fill, int) {
	g := ls.groups[idx/groupLines]
	if g == nil {
		g = new(lineGroup)
		ls.groups[idx/groupLines] = g
	}
	i := idx % groupLines
	l, c, fill, from := m.transition(cpu, line{owner: g.owner[i] - 1, sharers: g.sharers[i]}, write)
	g.owner[i], g.sharers[i] = l.owner+1, l.sharers
	return c, fill, from
}

// transition is the MESI-lite state machine: the state l moves to when cpu
// reads or writes the line, with the access's cost and fill classification.
// It charges the per-CPU statistics.
func (m *Model) transition(cpu int, l line, write bool) (line, int64, Fill, int) {
	bit := uint64(1) << uint(cpu)
	st := &m.stats[cpu]
	owned := line{owner: int8(cpu), sharers: bit}

	if write {
		switch {
		case l.owner == int8(cpu):
			st.Hits++
			return l, m.costs.Hit, FillNone, -1
		case l.owner >= 0:
			// Another CPU has the dirty copy: fetch it and take ownership.
			st.RemoteMisses++
			m.stats[l.owner].Invalidated++
			m.OwnerFlips++
			return owned, m.costs.MissRemote, FillCache, int(l.owner)
		case l.sharers == bit:
			// We have the only clean copy: silent upgrade still costs a bus
			// transaction on this era of hardware.
			st.Upgrades++
			return owned, m.costs.Upgrade, FillNone, -1
		case l.sharers&bit != 0:
			// We share it with others: invalidate them.
			st.Upgrades++
			m.chargeInvalidations(l.sharers &^ bit)
			return owned, m.costs.Upgrade, FillNone, -1
		case l.sharers != 0:
			// Others hold it clean, we do not: read-for-ownership from
			// memory plus invalidations.
			st.ColdMisses++
			m.chargeInvalidations(l.sharers)
			return owned, m.costs.MissMemory, FillMemory, -1
		default:
			st.ColdMisses++
			return owned, m.costs.MissMemory, FillMemory, -1
		}
	}

	// Read.
	switch {
	case l.owner == int8(cpu), l.owner < 0 && l.sharers&bit != 0:
		st.Hits++
		return l, m.costs.Hit, FillNone, -1
	case l.owner >= 0:
		// Dirty in another cache: cache-to-cache transfer, both end shared.
		st.RemoteMisses++
		m.OwnerFlips++
		return line{owner: -1, sharers: l.sharers | bit | 1<<uint(l.owner)}, m.costs.MissRemote, FillCache, int(l.owner)
	default:
		st.ColdMisses++
		return line{owner: -1, sharers: l.sharers | bit}, m.costs.MissMemory, FillMemory, -1
	}
}

func (m *Model) chargeInvalidations(mask uint64) {
	for c := 0; mask != 0; c++ {
		if mask&1 != 0 {
			m.stats[c].Invalidated++
		}
		mask >>= 1
	}
}

// Stats returns a copy of the per-CPU statistics.
func (m *Model) Stats() []CPUStats {
	out := make([]CPUStats, len(m.stats))
	copy(out, m.stats)
	return out
}

// SteadyWriteCost returns the expected per-write cost, in cycles, for a CPU
// repeatedly writing a line that `writers` distinct CPUs write concurrently
// at similar rates. With a single writer the line stays in Modified state
// (pure hits); with more, every write in a round-robin interleaving finds
// the line dirty in another cache and pays a remote transfer.
//
// This analytic form is what lets benchmark 3 advance 100-million-iteration
// write loops in O(1) simulated events: the sharing topology is fixed
// between allocation events, so the steady-state per-iteration cost is
// constant.
func (m *Model) SteadyWriteCost(writers int) int64 {
	if writers <= 1 {
		return m.costs.Hit
	}
	// Each write is preceded (w-1)/w of the time by another CPU's write in
	// a fair interleaving; charge the remote transfer proportionally.
	frac := float64(writers-1) / float64(writers)
	return m.costs.Hit + int64(frac*float64(m.costs.MissRemote)+0.5)
}
