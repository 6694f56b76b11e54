package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/cache"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// rep is one repetition of a workload: a fresh world built from the seed,
// its set-up phase, then its timed phase. The workload reaches every layer
// through rep's call wrappers, which count simulated ops, record failures
// and, on traced repetitions, open and close one span around each call.
type rep struct {
	w  *bench.World
	al malloc.Allocator
	as *vm.AddressSpace
	tr *tracer // non-nil only inside a traced timed phase

	counting bool
	ops      []uint64 // Malloc and Free calls per simulated thread in the timed phase
	stamp    uint32

	failures int
	firstErr error
}

func (r *rep) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.failures++
}

func (r *rep) count(t *sim.Thread) {
	if !r.counting {
		return
	}
	id := t.ID()
	for len(r.ops) <= id {
		r.ops = append(r.ops, 0)
	}
	r.ops[id]++
}

func (r *rep) open(t *sim.Thread, name int) {
	if r.tr != nil {
		r.tr.open(t.ID(), name)
	}
}

func (r *rep) close(t *sim.Thread) {
	if r.tr != nil {
		r.tr.close(t.ID())
	}
}

// malloc returns the new block's address, or 0 after recording the error.
func (r *rep) malloc(t *sim.Thread, size uint32) uint64 {
	r.open(t, spanMalloc)
	p, err := r.al.Malloc(t, size)
	r.close(t)
	r.count(t)
	if err != nil {
		r.fail(fmt.Errorf("malloc(%d): %w", size, err))
		return 0
	}
	return p
}

func (r *rep) free(t *sim.Thread, p uint64) {
	r.open(t, spanFree)
	err := r.al.Free(t, p)
	r.close(t)
	r.count(t)
	if err != nil {
		r.fail(fmt.Errorf("free(%#x): %w", p, err))
	}
}

func (r *rep) read32(t *sim.Thread, addr uint64) uint32 {
	r.open(t, spanAccess)
	v := r.as.Read32(t, addr)
	r.close(t)
	return v
}

func (r *rep) write32(t *sim.Thread, addr uint64, v uint32) {
	r.open(t, spanAccess)
	r.as.Write32(t, addr, v)
	r.close(t)
}

func (r *rep) write8(t *sim.Thread, addr uint64, v byte) {
	r.open(t, spanAccess)
	r.as.Write8(t, addr, v)
	r.close(t)
}

func (r *rep) yield(t *sim.Thread) {
	r.open(t, spanYield)
	t.Yield()
	r.close(t)
}

func (r *rep) spawn(t *sim.Thread, name string, body func(*sim.Thread)) *sim.Thread {
	r.open(t, spanSpawn)
	c := t.Spawn(name, body)
	r.close(t)
	return c
}

func (r *rep) join(t, other *sim.Thread) {
	r.open(t, spanJoin)
	t.Join(other)
	r.close(t)
}

// newObject allocates a size-byte object, stamps its first word and stores
// its address in slot i of the pointer array at arr. It returns the stamp,
// 0 when Malloc failed.
func (r *rep) newObject(t *sim.Thread, arr uint64, i int, size uint32) uint32 {
	p := r.malloc(t, size)
	var s uint32
	if p != 0 {
		r.stamp++
		s = r.stamp*2654435761 | 1
		r.write32(t, p, s)
	}
	if arr != 0 {
		r.write32(t, arr+uint64(4*i), uint32(p))
	}
	return s
}

// freeObject frees the object in slot i of the array at arr after checking
// its stamp. The check peeks, which charges no simulated time.
func (r *rep) freeObject(t *sim.Thread, arr uint64, i int, want uint32) {
	if arr == 0 {
		return
	}
	p := uint64(r.read32(t, arr+uint64(4*i)))
	if p == 0 {
		return
	}
	if got := r.as.Peek32(p); got != want {
		r.fail(fmt.Errorf("stamp at %#x: got %#x, want %#x", p, got, want))
	}
	r.free(t, p)
}

// checkBytes checks an object's front and back fill bytes by peeking.
func (r *rep) checkBytes(mem uint64, size uint32, front, back byte) {
	if f, b := r.as.Peek8(mem), r.as.Peek8(mem+uint64(size)-1); f != front || b != back {
		r.fail(fmt.Errorf("fill bytes at %#x: got %#x/%#x, want %#x/%#x", mem, f, b, front, back))
	}
}

// snapshot is the simulated state the per-layer counters and the digest
// read.
type snapshot struct {
	vm       vm.Stats
	alloc    malloc.Stats
	cache    []cache.CPUStats
	switches uint64
	arenas   int
	vmas     int
}

func (r *rep) snapshot() snapshot {
	return snapshot{
		vm:       r.as.Stats(),
		alloc:    r.al.Stats(),
		cache:    r.w.Cache.Stats(),
		switches: r.w.M.ContextSwitches,
		arenas:   len(r.al.Arenas()),
		vmas:     len(r.as.VMAs()),
	}
}

// repResult is what one repetition measured.
type repResult struct {
	slot       int     // which of the run's worlds
	setupS     float64 // host seconds: world, instance, prefill
	timedS     float64 // host seconds of the timed phase
	ops        uint64  // simulated Malloc and Free calls in the timed phase
	allocBytes uint64  // Go heap bytes allocated in the timed phase
	gcCycles   uint32
	gcPauseS   float64
	cycles     sim.Time // simulated cycles of the timed phase
	digest     string
	layers     map[string]metric // simulated per-layer counters
	err        error             // nil when every correctness check passed
}

// runRep runs one repetition. With tr non-nil the timed phase is traced.
// faults, when non-nil, arms vm fault injection after the set-up phase.
func runRep(wl *workload, seed uint64, tr *tracer, faults *vm.InjectPolicy) repResult {
	var res repResult
	r := &rep{}
	if tr != nil {
		tr.reset(tr.clock())
		tr.open(hostTID, spanSetup)
	}
	start := time.Now()
	r.w = bench.NewWorld(wl.profile, seed, bench.WithAllocator(wl.kind))
	var before, after snapshot
	var ms0, ms1 runtime.MemStats
	runErr := r.w.Run(func(main *sim.Thread) {
		inst, err := r.w.AddInstance(main)
		if err != nil {
			r.fail(err)
			return
		}
		r.al, r.as = inst.Alloc, inst.AS
		wl.setup(r, main)
		if faults != nil {
			r.as.SetFaultInjection(*faults)
		}
		res.setupS = time.Since(start).Seconds()
		before = r.snapshot()
		c0 := main.Now()
		runtime.ReadMemStats(&ms0)
		if tr != nil {
			tr.close(hostTID)
			tr.open(hostTID, spanRun)
			r.tr = tr
		}
		r.counting = true
		t0 := time.Now()
		wl.run(r, main)
		res.timedS = time.Since(t0).Seconds()
		r.counting = false
		if tr != nil {
			r.tr = nil
			tr.close(hostTID)
		}
		runtime.ReadMemStats(&ms1)
		res.cycles = main.Now() - c0
		after = r.snapshot()
	})
	if runErr != nil {
		r.fail(runErr)
	}
	if r.al != nil {
		if err := r.al.Check(); err != nil {
			r.fail(fmt.Errorf("allocator check: %w", err))
		}
	}
	for _, n := range r.ops {
		res.ops += n
	}
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	res.digest = digest(res.cycles, r.ops, after)
	res.layers = layerCounters(before, after, res.cycles)
	if r.failures > 0 {
		res.err = fmt.Errorf("%d failed checks, first: %w", r.failures, r.firstErr)
	}
	if res.ops == 0 && res.err == nil {
		res.err = errors.New("timed phase ran no simulated ops")
	}
	return res
}

// digest hashes the simulated end state: timed-phase cycles, per-thread op
// counts, vm and allocator statistics and the cache directory's per-CPU
// outcomes. Host timing never enters it, so it must not vary between
// repetitions of one seed, traced or not.
func digest(cycles sim.Time, ops []uint64, s snapshot) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\nops=%v\nvm=%+v\nmalloc=%+v\ncache=%+v\n", cycles, ops, s.vm, s.alloc, s.cache)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// layerCounters returns the simulated per-layer counters of a timed phase:
// deltas for event counts, end values for sizes.
func layerCounters(b, a snapshot, cycles sim.Time) map[string]metric {
	var hits, accesses, remote uint64
	for i := range a.cache {
		x, y := a.cache[i], b.cache[i]
		hits += x.Hits - y.Hits
		remote += x.RemoteMisses - y.RemoteMisses
		accesses += x.Hits + x.ColdMisses + x.RemoteMisses + x.Upgrades -
			(y.Hits + y.ColdMisses + y.RemoteMisses + y.Upgrades)
	}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	cacheHits := a.alloc.CacheHits - b.alloc.CacheHits
	cacheMisses := a.alloc.CacheMisses - b.alloc.CacheMisses
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	return map[string]metric{
		"cache.accesses":        count(accesses),
		"cache.hit_rate":        {ratio(hits, accesses), "frac"},
		"cache.remote_misses":   count(remote),
		"vm.minor_faults":       count(a.vm.MinorFaults - b.vm.MinorFaults),
		"vm.mmap_calls":         count(a.vm.MmapCalls - b.vm.MmapCalls),
		"vm.munmap_calls":       count(a.vm.MunmapCalls - b.vm.MunmapCalls),
		"vm.vmas":               count(uint64(a.vmas)),
		"sim.context_switches":  count(a.switches - b.switches),
		"sim.cycles":            {float64(cycles), "cycles"},
		"heap.arenas":           count(uint64(a.arenas)),
		"malloc.lock_acqs":      count(a.alloc.ArenaLockAcqs - b.alloc.ArenaLockAcqs),
		"malloc.trylock_fails":  count(a.alloc.TrylockFailures - b.alloc.TrylockFailures),
		"malloc.cache_hit_rate": {ratio(cacheHits, cacheHits+cacheMisses), "frac"},
	}
}
