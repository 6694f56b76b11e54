package malloc

import (
	"errors"
	"fmt"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// arenaList is the boundary-tag arena-list allocator behind the paper's
// three designs. All three run the same heap arenas with the allocation path
// under the chosen arena's lock; the kind decides only how a thread picks
// its arena:
//
//   - serial (the Solaris 2.6 libc allocator): one arena behind one mutex.
//     Excellent single-thread speed — no arena search, no TSD, no owner
//     lookup on free — and catastrophic SMP scaling, because the lock
//     serializes every malloc and free.
//   - ptmalloc (Gloger's, as shipped in glibc 2.0/2.1): malloc trylocks the
//     caller's last-used arena (thread-specific data), then sweeps the list
//     trylocking each arena, and only when all are busy creates a new arena
//     under the list lock — after one more sweep, which is the window
//     through which two threads can end up sharing an arena. Free locks
//     whichever arena owns the chunk, wherever the caller runs, so
//     producer/consumer workloads scatter free chunks across arenas
//     (benchmark 2's leak mechanism), and the list never shrinks ("nothing
//     stops the heap list from growing without bound", §3).
//   - perthread (the paper's §2 option 2, the direction Hoard and tcmalloc
//     later took): every thread gets a private arena on its first arena
//     allocation, so allocation never contends; cross-thread frees lock the
//     owner's arena. The trade-off is worst-case memory: T threads hold T
//     arenas regardless of load balance.
type arenaList struct {
	*base
	kind  Kind
	owner map[int]*heap.Arena // perthread: thread ID -> private arena
}

// newArenaList creates the serial, ptmalloc or perthread allocator on as.
// Perthread's creating thread owns the main arena.
func newArenaList(t *sim.Thread, kind Kind, as *vm.AddressSpace, params heap.Params, costs CostParams) (*arenaList, error) {
	b, err := newBase(t, string(kind), as, params, costs)
	if err != nil {
		return nil, err
	}
	l := &arenaList{base: b, kind: kind}
	if kind == KindPerThread {
		l.owner = map[int]*heap.Arena{t.ID(): b.arenas[0]}
	}
	return l, nil
}

// chargedArena is the arena an operation by t is billed against and, on
// free, compared with to count CrossArenaFrees: main for serial, the
// last-used arena for ptmalloc, the private arena for perthread.
func (l *arenaList) chargedArena(t *sim.Thread) *heap.Arena {
	switch l.kind {
	case KindSerial:
		return l.arenas[0]
	case KindPerThread:
		return l.owner[t.ID()]
	}
	return l.lastArena[t.ID()]
}

// Malloc allocates size bytes. The mmap path is checked first, so a
// perthread thread that only ever makes above-threshold requests never pays
// for a private arena it cannot use.
func (l *arenaList) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	l.opCharge(t, 0, l.chargedArena(t))
	if mem, err, done := l.mmapPath(t, size); done {
		if err == nil {
			l.telOp(t, telemetry.OpMalloc, l.params.Request2Size(size), telemetry.TierVM, start)
		}
		return mem, err
	}
	l.noteQuant(size)
	var mem uint64
	var err error
	switch l.kind {
	case KindSerial:
		main := l.arenas[0]
		mem, err = l.lockedMalloc(t, main, size)
		l.lastArena[t.ID()] = main
	case KindPerThread:
		mem, err = l.mallocOwned(t, size)
	default:
		mem, err = l.mallocSweep(t, size)
	}
	if err == nil {
		l.telOp(t, telemetry.OpMalloc, l.params.Request2Size(size), telemetry.TierArena, start)
	}
	return mem, err
}

// lockedMalloc carves size bytes from a under its lock, charging the
// allocator's instruction work inside the critical section: the whole path
// runs under the lock, which is exactly why a single lock convoys on SMP.
func (l *arenaList) lockedMalloc(t *sim.Thread, a *heap.Arena, size uint32) (uint64, error) {
	t.Lock(a.Lock)
	t.Charge(sim.Time(l.costs.WorkMalloc))
	mem, err := a.Malloc(t, size)
	t.Unlock(a.Lock)
	return mem, err
}

// mallocOwned is perthread's arena path: the private arena, with main as the
// overflow.
func (l *arenaList) mallocOwned(t *sim.Thread, size uint32) (uint64, error) {
	t.Charge(sim.Time(l.costs.TSDRead))
	a := l.owner[t.ID()]
	if a == nil {
		var err error
		if a, err = l.grow(t); err != nil {
			return 0, fmt.Errorf("malloc: creating per-thread arena: %w", err)
		}
		l.owner[t.ID()] = a
	}
	mem, err := l.lockedMalloc(t, a, size)
	l.lastArena[t.ID()] = a
	if err == nil || !(errors.Is(err, heap.ErrArenaFull) || errors.Is(err, heap.ErrNoMemory)) {
		return mem, err
	}
	// Private arena at its size cap — or unable to grow at all under a
	// commit limit: overflow to the main arena, which may still have free
	// chunks (and grows with sbrk, uncapped). The chunk will come back as a
	// cross-arena free, the design's documented trade-off.
	main := l.arenas[0]
	mem, err = l.lockedMalloc(t, main, size)
	if err == nil {
		l.lastArena[t.ID()] = main
	}
	return mem, err
}

// mallocSweep is ptmalloc's arena path: trylock search, then a blocking
// fall-over when the chosen arena hits its size cap, then a fresh arena.
func (l *arenaList) mallocSweep(t *sim.Thread, size uint32) (uint64, error) {
	a, err := l.arenaGet(t)
	if err != nil {
		return 0, err
	}
	t.Charge(sim.Time(l.costs.WorkMalloc))
	mem, err := a.Malloc(t, size)
	t.Unlock(a.Lock)
	if err == nil {
		return mem, nil
	}
	if !errors.Is(err, heap.ErrArenaFull) {
		return 0, err
	}
	// The sub-arena hit its size cap: fall over to any arena that can
	// serve, blocking on locks this time, then to a fresh arena.
	for _, b := range l.arenas {
		if b == a {
			continue
		}
		t.Lock(b.Lock)
		mem, err = b.Malloc(t, size)
		t.Unlock(b.Lock)
		if err == nil {
			l.lastArena[t.ID()] = b
			return mem, nil
		}
	}
	nb, cerr := l.grow(t)
	if cerr != nil {
		return 0, fmt.Errorf("malloc: no arena can satisfy %d bytes: %w", size, cerr)
	}
	t.Lock(nb.Lock)
	mem, err = nb.Malloc(t, size)
	t.Unlock(nb.Lock)
	if err == nil {
		l.lastArena[t.ID()] = nb
	}
	return mem, err
}

// arenaGet implements ptmalloc's arena_get: returns a locked arena.
func (l *arenaList) arenaGet(t *sim.Thread) (*heap.Arena, error) {
	// Fast path: last arena from thread-specific data.
	if last := l.lastArena[t.ID()]; last != nil {
		t.Charge(sim.Time(l.costs.TSDRead))
		if t.TryLock(last.Lock) {
			return last, nil
		}
		l.stats.TrylockFailures++
	}
	// Sweep the list for any unlocked arena.
	for _, a := range l.arenas {
		if t.TryLock(a.Lock) {
			l.lastArena[t.ID()] = a
			return a, nil
		}
		l.stats.TrylockFailures++
	}
	// All busy: create a new arena, retrying the sweep once under the list
	// lock (the real code does; it is how two racing threads can end up on
	// one arena instead of creating two).
	t.Lock(l.listLock)
	for _, a := range l.arenas {
		if t.TryLock(a.Lock) {
			t.Unlock(l.listLock)
			l.lastArena[t.ID()] = a
			return a, nil
		}
		l.stats.TrylockFailures++
	}
	a, err := l.growLocked(t)
	t.Unlock(l.listLock)
	if err != nil {
		return nil, err
	}
	t.Lock(a.Lock)
	l.lastArena[t.ID()] = a
	return a, nil
}

// grow appends a fresh sub-arena to the list under the list lock.
func (l *arenaList) grow(t *sim.Thread) (*heap.Arena, error) {
	t.Lock(l.listLock)
	a, err := l.growLocked(t)
	t.Unlock(l.listLock)
	return a, err
}

// growLocked appends a fresh sub-arena; the caller holds the list lock.
func (l *arenaList) growLocked(t *sim.Thread) (*heap.Arena, error) {
	a, err := heap.NewSub(t, l.as, &l.params, len(l.arenas))
	if err != nil {
		return nil, err
	}
	l.arenas = append(l.arenas, a)
	l.stats.ArenaCreations++
	return a, nil
}

// Free releases mem into the arena that owns it. Serial skips the owner
// lookup: its one arena owns everything.
func (l *arenaList) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	cur := l.chargedArena(t)
	l.opCharge(t, 0, cur)
	if done, err := l.freeIfMmapped(t, mem); done {
		if err == nil {
			l.telOp(t, telemetry.OpFree, 0, telemetry.TierVM, start)
		}
		return err
	}
	a := l.arenas[0]
	if l.kind != KindSerial {
		var err error
		if a, err = l.routeFree(t, mem); err != nil {
			return err
		}
		if cur != nil && cur != a {
			l.stats.CrossArenaFrees++
		}
	}
	t.Lock(a.Lock)
	t.Charge(sim.Time(l.costs.WorkFree))
	err := a.Free(t, mem)
	t.Unlock(a.Lock)
	if err == nil {
		l.telOp(t, telemetry.OpFree, 0, telemetry.TierArena, start)
	}
	return err
}

// Realloc resizes mem with C semantics, growing in place inside the owning
// arena when a neighbour can be absorbed.
func (l *arenaList) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	return reallocOn(l, l.base, t, mem, size)
}

// Calloc allocates zeroed memory.
func (l *arenaList) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	return callocOn(l, l.base, t, size)
}

// Stats returns aggregated statistics.
func (l *arenaList) Stats() Stats { return l.sumStats() }

// Check verifies every arena.
func (l *arenaList) Check() error { return l.checkAll() }

var _ Allocator = (*arenaList)(nil)
