package malloc

import (
	"cmp"
	"fmt"
	"sort"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
)

// sortedKeys returns m's keys in ascending order. Every walk over an
// allocator-side map must go through this (or equivalent sorting): raw map
// iteration order would leak Go runtime randomness into the simulation and
// break run-for-run determinism.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// This file is the reclamation cascade (enabled by ScavengeInterval > 0):
// an epoch schedule in simulated time plus the five stages each pass runs,
// in this order:
//
//	magazines -> depot -> binned pages -> reuse cache -> arena-top trim
//
// Idle magazines and cold depot spans free their chunks into the owning
// arenas (tcmalloc's ReleaseToSpans direction), the binned-page stage hands
// back the interiors of free chunks that coalesced somewhere the top trim
// cannot reach (tcmalloc's PageHeap release), the vm reuse cache unmaps
// regions that have sat parked for a full epoch, and finally the trim stage
// hands each arena's free top tail back to the kernel. Chunks the earlier
// stages free into the arenas carry fresh idle stamps, so they ride out to
// the kernel on the following epochs once they have proven cold.
//
// Everything is driven by simulated virtual time, never by wall-clock or Go
// runtime state, and every stage iterates its state in sorted order (thread
// IDs, size classes), never raw map order: a pass must be a pure function
// of the simulation state for runs to stay deterministic.

// Scavenger runs decay passes over the thread cache on an epoch schedule.
// Passes run in one of two ways, sharing the schedule:
//
//   - inline: allocator entry points call Tick, which runs a pass when the
//     calling thread's clock has crossed the epoch boundary (the work is
//     charged to that thread, like malloc_trim called from free);
//   - background: a dedicated simulated thread runs Background, sleeping
//     until the next epoch is due — SpeedMalloc's off-critical-path
//     housekeeping, which keeps decay going while every application thread
//     is idle.
type Scavenger struct {
	tc       *ThreadCache
	interval sim.Time // epoch length; an item must idle a full epoch to decay
	decay    int      // percent of an idle tier's parked memory shed per epoch
	nextAt   sim.Time // when the next pass is due; 0 until the first Tick
}

// Tick runs a pass if the calling thread's clock has reached the next epoch
// boundary, charging the work to that thread. It reports whether a pass ran.
// The schedule anchors lazily: the first Tick only arms the first epoch one
// interval out, so a scavenger created during allocator construction does
// not fire a pass on the very first operation. Callers must not hold any
// simulated lock.
//
// While the service threads run, node 0's is the only thread whose Ticks
// count. Per-thread clocks in the simulator skew by up to a batch, so two
// actors sharing the schedule could each see the boundary as due and run
// two passes less than one interval apart — double decay. Force is exempt:
// teardown and tests must always be able to run a pass.
func (s *Scavenger) Tick(t *sim.Thread) bool {
	if svc := s.tc.svc; svc != nil && svc.running && t != svc.nodes[0].thread {
		return false
	}
	if s.nextAt == 0 {
		s.nextAt = t.Now() + s.interval
		return false
	}
	if t.Now() < s.nextAt {
		return false
	}
	s.pass(t)
	return true
}

// Force runs a pass immediately regardless of the epoch schedule (thread
// teardown, tests). The next scheduled pass still moves one full interval
// out, so a forced pass never doubles up with an imminent scheduled one.
func (s *Scavenger) Force(t *sim.Thread) {
	s.pass(t)
}

// Background runs the scavenger as a dedicated simulated thread: it sleeps
// until the next epoch is due, runs the pass, and repeats until stop returns
// true. Inline Ticks share the schedule, so a busy phase that keeps ticking
// simply leaves the background thread asleep; it matters when every
// application thread goes idle — exactly when there is the most to reclaim.
// The owner must arrange for stop to become true (and then join the thread)
// before the simulation can end.
func (s *Scavenger) Background(t *sim.Thread, stop func() bool) {
	for !stop() {
		if wait := s.nextAt - t.Now(); wait > 0 {
			t.Sleep(wait)
			continue // re-check stop before running a pass
		}
		if !s.Tick(t) && s.nextAt <= t.Now() {
			// The service thread owns the schedule and this loop may never
			// advance nextAt itself; sleep a full interval so the loop cannot
			// spin at one instant of virtual time.
			t.Sleep(s.interval)
		}
	}
}

// pass runs the five stages in cascade order with a cutoff one interval in
// the past. ScavengeBytes sums every stage's shed bytes; stages overlap (a
// magazine chunk flushed to an arena may be trimmed out of the same pass's
// top tail), so it measures decay activity, not RSS returned — the
// per-stage counters separate the two.
func (s *Scavenger) pass(t *sim.Thread) {
	tc := s.tc
	cutoff := max(t.Now()-s.interval, 0)
	t.Charge(scavengeWork)
	released := tc.scavengeMagazines(t, cutoff, s.decay)
	spans, chunks, bytes := tc.drainDepots(t, cutoff, s.decay)
	tc.stats.ScavengeDepotSpans += uint64(spans)
	tc.stats.ScavengeDepotChunks += uint64(chunks)
	released += bytes
	if tc.minBinBytes > 0 {
		released += tc.releaseBinnedPages(t, cutoff)
	}
	released += tc.expireReuse(t, cutoff)
	released += tc.trimArenas(t, cutoff)
	tc.stats.ScavengeEpochs++
	tc.stats.ScavengeBytes += released
	s.nextAt = t.Now() + s.interval
}

// scavengeMagazines decays the magazines of threads that have stopped
// allocating: a thread cache idle since before the cutoff loses decay
// percent of each class's oldest entries, flushed straight into the owning
// arenas (not the depot — the point is reclamation, not another parking
// tier).
func (tc *ThreadCache) scavengeMagazines(t *sim.Thread, cutoff sim.Time, decay int) uint64 {
	released := uint64(0)
	for _, tid := range sortedKeys(tc.caches) {
		c := tc.caches[tid]
		if c.lastOp >= cutoff {
			continue // the owner is still allocating; leave its magazines hot
		}
		for _, csz := range sortedKeys(c.classes) {
			cl := c.classes[csz]
			// A pending remote buffer in an idle cache flushes whole: it is
			// memory in transit to another node, not a working set worth
			// decaying gently, and its owner has stopped pushing it home.
			if len(cl.remote) > 0 {
				n := len(cl.remote)
				if err := tc.flush(t, cl.remote); err != nil {
					tc.recordErr(fmt.Errorf("malloc: scavenging remote buffer: %w", err))
				}
				cl.remote = nil
				tc.stats.ScavengeMagChunks += uint64(n)
				released += uint64(n) * uint64(cl.csz)
			}
			if len(cl.entries) == 0 {
				continue
			}
			// The share rarely divides evenly; the remainder carries over in
			// hundredths-of-a-chunk so small classes decay at the configured
			// rate instead of the 100%/epoch a rounded-up minimum would give
			// a 1-entry class (or 25%/epoch a 4-entry class at 1% decay).
			total := len(cl.entries)*decay + cl.decayRem
			n := total / 100
			cl.decayRem = total % 100
			if n == 0 {
				continue
			}
			if err := tc.flush(t, cl.entries[:n]); err != nil {
				tc.recordErr(fmt.Errorf("malloc: scavenging idle magazine: %w", err))
			}
			copy(cl.entries, cl.entries[n:])
			cl.entries = cl.entries[:len(cl.entries)-n]
			cl.streak = 0
			tc.stats.ScavengeMagChunks += uint64(n)
			released += uint64(n) * uint64(cl.csz)
		}
	}
	return released
}

// drainDepots returns cold depot spans to the owning arenas: any class that
// has not exchanged a span since the cutoff sheds decay percent of its spans,
// freed chunk by chunk under the arena locks (one acquisition per arena, via
// the same sorted flush the magazines use). On a sharded pool the per-node
// depots are drained in node order, each flushing into its own node's
// arenas, so decay stays node-local. It books no counter: the idle pass and
// the emergency cascade (farFuture, 100) account for what it returns in
// their own ways.
func (tc *ThreadCache) drainDepots(t *sim.Thread, cutoff sim.Time, decay int) (spans, chunks int, bytes uint64) {
	for _, depot := range tc.depots {
		ss, n, b := depot.scavenge(t, cutoff, decay)
		if len(ss) == 0 {
			continue
		}
		victims := make([]tcEntry, 0, n)
		for _, span := range ss {
			victims = append(victims, span...)
		}
		if err := tc.flush(t, victims); err != nil {
			tc.recordErr(fmt.Errorf("malloc: draining depot spans: %w", err))
		}
		spans += len(ss)
		chunks += n
		bytes += b
	}
	return spans, chunks, bytes
}

// releaseBinnedPages is the PageHeap-style stage between the depot and the
// reuse cache: it walks every arena's bins and releases the whole pages
// strictly inside free chunks that have sat binned since before the cutoff
// (Arena.ReleaseBinned). This is the only stage that reaches memory flushed
// into the middle of a multi-segment sub-arena, where the top trim never
// looks. Age is the policy, like the reuse tier: a cold binned chunk is
// released whole, and the next carve-out from it pays the refault cost.
func (tc *ThreadCache) releaseBinnedPages(t *sim.Thread, cutoff sim.Time) uint64 {
	released := tc.forEachIdleArena(t, cutoff, func(a *heap.Arena) uint64 {
		return a.ReleaseBinned(t, cutoff, tc.minBinBytes, tc.binPad)
	})
	tc.stats.ScavengeBinBytes += released
	return released
}

// forEachIdleArena runs fn under the lock of every arena with no
// malloc-family operation since cutoff and sums the bytes fn releases. It is
// the one copy of the page-release stages' skip-busy policy: a mid-burst
// arena turns its bins and top over constantly, and trimming or madvising it
// only buys a release/refault ping-pong with no lasting footprint win. An
// arena the pass itself freed into (a magazine or depot flush earlier in the
// same pass) counts as active too, so its release waits until those stages
// stop flushing — with geometric decay that is a handful of epochs for a fat
// magazine, after which the coalesced chunks go out.
//
// The walk goes shard by shard (node order, creation order within a
// shard), so page release stays grouped by node on a sharded pool. Every
// arena is in exactly one shard: newBase's main arena sits in shard 0 and
// growPool appends to both lists, so the shard walk covers the pool
// completely (and is the flat creation-order walk when there is a single
// shard).
func (tc *ThreadCache) forEachIdleArena(t *sim.Thread, cutoff sim.Time, fn func(*heap.Arena) uint64) uint64 {
	released := uint64(0)
	for _, sh := range tc.shards {
		for _, a := range sh.arenas {
			if a.LastOp() >= cutoff {
				continue
			}
			t.Lock(a.Lock)
			released += fn(a)
			t.Unlock(a.Lock)
		}
	}
	return released
}

// expireReuse unmaps parked mmap regions: anything the vm reuse cache has
// held since before the cutoff is munmapped for real. Age, not decay
// percentage, is the policy here — a parked region is all-or-nothing.
func (tc *ThreadCache) expireReuse(t *sim.Thread, cutoff sim.Time) uint64 {
	_, bytes, err := tc.as.EvictReuseBefore(t, cutoff)
	if err != nil {
		tc.recordErr(err)
	}
	tc.stats.ScavengeReuseBytes += bytes
	return bytes
}

// trimArenas is the terminal stage: it releases the resident tail of every
// idle arena's top chunk past the configured pad, which is where the chunks
// freed by the earlier stages end up once they coalesce.
func (tc *ThreadCache) trimArenas(t *sim.Thread, cutoff sim.Time) uint64 {
	released := tc.forEachIdleArena(t, cutoff, func(a *heap.Arena) uint64 {
		return a.TrimTop(t, tc.trimPad)
	})
	tc.stats.ScavengeTrimBytes += released
	return released
}

// Scavenger returns the allocator's reclamation schedule, nil when
// scavenging is disabled — or tc is nil, so ThreadCacheOf(al).Scavenger()
// serves every kind. The bench harness uses it to run the background
// scavenger thread and to force passes at phase boundaries.
func (tc *ThreadCache) Scavenger() *Scavenger {
	if tc == nil {
		return nil
	}
	return tc.scav
}

// maybeScavenge is the inline hook: allocator entry points call it once per
// operation, and it runs a decay pass on the caller when the epoch boundary
// has passed. Free ride for busy phases; idle phases rely on Background.
func (tc *ThreadCache) maybeScavenge(t *sim.Thread) {
	if tc.scav == nil {
		return
	}
	start := t.Now()
	if tc.scav.Tick(t) && tc.tel != nil {
		// A pass ran: trace it, and give the time series a point right
		// after the reclaim (the footprint gauges just moved).
		tc.tel.Span(t, "scavenge pass", "scavenge", start)
		tc.tel.MaybeSample(t)
	}
}
