package malloc

import (
	"fmt"

	"mtmalloc/internal/sim"
)

// depot is the tcmalloc-style central transfer cache sitting between the
// per-thread magazines and the arena pool: a per-size-class store of chunk
// spans. Magazine misses try the depot before taking an arena lock;
// magazine flushes and thread detaches donate whole spans instead of
// freeing chunk by chunk into arenas, so the cross-thread free traffic of
// benchmark 2 becomes one depot exchange per span. Every class parks at
// most capBytes; overflow falls through to the arenas, which keeps the
// depot from becoming an unbounded leak. The cap is in bytes, not spans: a
// span count punishes adaptive marks, whose shrunken spans would hit the
// count limit while parking almost nothing.
//
// Chunks in the depot look allocated from their arena's point of view (the
// same invariant the magazines rely on), and every entry still records its
// owning arena, so spans may mix arenas freely and later flushes route
// correctly. Classes also remember when they were last exchanged, so the
// scavenger can tell cold classes from hot ones.
//
// The policy (LIFO spans, byte cap, lastUse ages, fractional decay
// remainders) is one; only the synchronization pricing of a class differs,
// chosen once per depot (the experiment D5 ablation):
//
//   - mutex: each class sits behind its own sim.Mutex, priced by the
//     analytic lock model. A get or put locks before the exchange charge
//     and unlocks on every exit, a miss or a full class included.
//   - lock-free: each class is a Treiber stack of spans whose head is a
//     sim.CASPoint. The exchange charge comes first (the probe of the head
//     word), then one CAS only on a hit or an accepted put, and nobody ever
//     blocks — a preempted thread mid-exchange cannot convoy the class the
//     way a preempted mutex holder does. The capacity check reads the
//     class's byte counter, an estimate under concurrency exactly like the
//     real lock-free caches' length hints. The scavenger detaches the whole
//     stack with one CAS, takes its share from that private snapshot, and
//     re-attaches the survivors with a second CAS.
type depot struct {
	mach     *sim.Machine
	name     string
	lockFree bool
	classes  map[uint32]*depotClass
	capBytes int64
	stats    *Stats
}

// depotClass is one size class of the depot: its guard (lock or head, never
// both), parked spans (the top of the stack is the last element), parked
// bytes and the last virtual time a span moved through it. decayRem carries
// the scavenger's fractional decay share in hundredths of a span, so small
// classes decay at the configured rate instead of rounding to
// all-or-nothing each epoch.
type depotClass struct {
	lock     *sim.Mutex
	head     *sim.CASPoint
	spans    [][]tcEntry
	bytes    int64
	lastUse  sim.Time
	decayRem int
}

func newDepot(m *sim.Machine, name string, lockFree bool, capBytes int64, stats *Stats) *depot {
	return &depot{
		mach:     m,
		name:     name,
		lockFree: lockFree,
		classes:  make(map[uint32]*depotClass),
		capBytes: capBytes,
		stats:    stats,
	}
}

// classOf returns (creating if needed) the depot class for chunk size csz.
// Creation is Go-side bookkeeping; the simulated cost is the guard traffic.
func (d *depot) classOf(csz uint32) *depotClass {
	dc := d.classes[csz]
	if dc == nil {
		dc = &depotClass{}
		if d.lockFree {
			dc.head = d.mach.NewCASPoint(fmt.Sprintf("%s.lfdepot.%d", d.name, csz))
		} else {
			dc.lock = d.mach.NewMutex(fmt.Sprintf("%s.depot.%d", d.name, csz))
		}
		d.classes[csz] = dc
	}
	return dc
}

// enter takes the class lock (mutex pricing) before any exchange charge.
func (dc *depotClass) enter(t *sim.Thread) {
	if dc.lock != nil {
		t.Lock(dc.lock)
	}
}

// leave releases the class lock on every exit (mutex pricing).
func (dc *depotClass) leave(t *sim.Thread) {
	if dc.lock != nil {
		t.Unlock(dc.lock)
	}
}

// swing prices one update of the stack head (lock-free pricing).
func (dc *depotClass) swing(t *sim.Thread) {
	if dc.head != nil {
		t.CAS(dc.head)
	}
}

// get pops the newest span for chunk size csz. The returned span is owned
// by the caller.
func (d *depot) get(t *sim.Thread, csz uint32) ([]tcEntry, bool) {
	dc := d.classOf(csz)
	dc.enter(t)
	t.Charge(depotXfer)
	dc.lastUse = t.Now()
	n := len(dc.spans)
	if n == 0 {
		dc.leave(t)
		d.stats.DepotMisses++
		return nil, false
	}
	dc.swing(t)
	span := dc.spans[n-1]
	dc.spans = dc.spans[:n-1]
	dc.bytes -= int64(len(span)) * int64(csz)
	dc.leave(t)
	d.stats.DepotHits++
	return span, true
}

// put donates a span to class csz. The depot keeps the slice, so callers
// must hand over ownership. Returns false — without keeping the span — when
// the class's byte cap would be exceeded.
func (d *depot) put(t *sim.Thread, csz uint32, span []tcEntry) bool {
	if len(span) == 0 {
		return true
	}
	dc := d.classOf(csz)
	dc.enter(t)
	t.Charge(depotXfer)
	dc.lastUse = t.Now()
	spanBytes := int64(len(span)) * int64(csz)
	if dc.bytes+spanBytes > d.capBytes {
		dc.leave(t)
		d.stats.DepotOverflows++
		return false
	}
	dc.swing(t)
	dc.spans = append(dc.spans, span)
	dc.bytes += spanBytes
	dc.leave(t)
	d.stats.DepotDonates++
	return true
}

// scavenge removes decayPercent of the spans from every class that has not
// exchanged a span since cutoff, oldest donations (the bottom of the stack)
// first, and returns them for the caller to free into the arenas. Classes
// are swept in size order so the pass is deterministic. The share rarely
// divides evenly; the remainder carries over in hundredths of a span (like
// the magazines' decayRem), so a one-span class at 50% drains over two
// epochs instead of instantly. Scavenging itself does not refresh lastUse:
// a class nobody exchanges with keeps decaying epoch after epoch until it is
// empty.
//
// Under lock-free pricing the first swing detaches the whole stack, so the
// take is computed from a private snapshot, and a second swing re-attaches
// the survivors only when some remain. The class's byte counter is then
// recomputed from the survivors rather than adjusted, so no torn
// count-vs-list state is observable.
func (d *depot) scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) (spans [][]tcEntry, chunks int, bytes uint64) {
	for _, csz := range sortedKeys(d.classes) {
		dc := d.classes[csz]
		if dc.lastUse >= cutoff || len(dc.spans) == 0 {
			continue
		}
		total := len(dc.spans)*decayPercent + dc.decayRem
		n := total / 100
		dc.decayRem = total % 100
		if n == 0 {
			continue
		}
		dc.enter(t)
		t.Charge(depotXfer)
		dc.swing(t)
		for _, span := range dc.spans[:n] {
			spans = append(spans, span)
			chunks += len(span)
			bytes += uint64(len(span)) * uint64(csz)
		}
		keep := dc.spans[n:]
		if len(keep) > 0 {
			dc.swing(t)
		}
		dc.spans = append(dc.spans[:0], keep...)
		dc.bytes = 0
		for _, span := range dc.spans {
			dc.bytes += int64(len(span)) * int64(csz)
		}
		dc.leave(t)
	}
	return spans, chunks, bytes
}

// chunkCount returns the number of chunks parked right now.
func (d *depot) chunkCount() int {
	n := 0
	for _, dc := range d.classes {
		for _, span := range dc.spans {
			n += len(span)
		}
	}
	return n
}

// byteCount returns the number of bytes parked right now.
func (d *depot) byteCount() uint64 {
	n := int64(0)
	for _, dc := range d.classes {
		n += dc.bytes
	}
	return uint64(n)
}

// check verifies the depot invariants against the caller's duplicate set:
// every parked chunk passes the ownership check and appears in at most one
// cache slot anywhere (magazines included), and each class's byte counter
// agrees with its span list (a torn count would surface here).
func (d *depot) check(seen map[uint64]bool, owns func(tcEntry) error) error {
	for _, csz := range sortedKeys(d.classes) {
		dc := d.classes[csz]
		var listBytes int64
		for _, span := range dc.spans {
			listBytes += int64(len(span)) * int64(csz)
			for _, e := range span {
				if seen[e.mem] {
					return fmt.Errorf("malloc: chunk 0x%x cached twice (depot class %d)", e.mem, csz)
				}
				seen[e.mem] = true
				if err := owns(e); err != nil {
					return fmt.Errorf("malloc: depot class %d: %w", csz, err)
				}
			}
		}
		if listBytes != dc.bytes {
			return fmt.Errorf("malloc: depot class %d: byte counter %d, span list holds %d (torn count)",
				csz, dc.bytes, listBytes)
		}
	}
	return nil
}

// lockAcqs sums the class-lock acquisitions — the depot-tier contention
// counter experiment D5 expects to be zero under lock-free pricing.
func (d *depot) lockAcqs() uint64 {
	n := uint64(0)
	for _, dc := range d.classes {
		if dc.lock != nil {
			n += dc.lock.Acquisitions
		}
	}
	return n
}

// casStats aggregates the class heads' CAS counters (zero under mutex
// pricing).
func (d *depot) casStats() sim.PointStats {
	var s sim.PointStats
	for _, dc := range d.classes {
		if dc.head == nil {
			continue
		}
		st := dc.head.PointStats()
		s.Acquisitions += st.Acquisitions
		s.Contended += st.Contended
		s.WaitCycles += st.WaitCycles
		s.CASAttempts += st.CASAttempts
		s.CASFails += st.CASFails
	}
	return s
}
