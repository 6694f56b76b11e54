package malloc

import (
	"mtmalloc/internal/sim"
)

// depot is the tier-2 central transfer cache behind the thread magazines,
// pluggable so the contention pricing of the middle tier can be ablated:
//
//   - transferCache (transfercache.go): every size class behind its own
//     mutex — the tcmalloc shape, priced by the analytic lock model. The
//     paper-era designs use this and their numbers are bit-identical to the
//     pre-refactor allocator.
//
//   - lfDepot (lfdepot.go): every size class a Treiber stack of spans whose
//     head is a CAS point — push and pop are one CAS each, scavenging
//     detaches the whole stack with one CAS and re-attaches the survivors
//     with another. The depot of the lock-free kinds.
//
// Both implementations keep the same policy (LIFO spans, byte/span caps,
// lastUse ages for the scavenger, fractional decay remainders) so switching
// the depot changes only the synchronization pricing.
type depot interface {
	// get pops one span for chunk size csz; the caller owns the result.
	get(t *sim.Thread, csz uint32) ([]tcEntry, bool)
	// put donates a span; false (without keeping it) when the class is full.
	put(t *sim.Thread, csz uint32, span []tcEntry) bool
	// scavenge removes decayPercent of the spans from every class idle since
	// cutoff (oldest first) and returns them to be freed into the arenas.
	scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) (spans [][]tcEntry, chunks int, bytes uint64)
	// chunkCount and byteCount report what is parked right now.
	chunkCount() int
	byteCount() uint64
	// check verifies the depot invariants: every parked chunk passes the
	// caller's ownership check and appears in at most one cache slot
	// anywhere (the shared seen set covers magazines too).
	check(seen map[uint64]bool, owns func(tcEntry) error) error
	// lockAcqs reports class-lock acquisitions (zero for the lock-free depot
	// — the headline counter of experiment D5).
	lockAcqs() uint64
	// casStats aggregates the depot's CAS-point counters (zero for the
	// mutex depot).
	casStats() sim.PointStats
}
