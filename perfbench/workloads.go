package main

import (
	"fmt"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
)

// The three workloads each load a different simulator layer; WORKLOADS.md
// says why each exists and which layer its host time should go to. Every
// workload is a closed loop: a simulated thread issues its next call only
// after the previous one returned. Lengths are fixed, so one seed always
// gives the same simulated run; the benchmark repeats the run to fill its
// measuring time.

// workload is one benchmark input: a machine profile, an allocator design,
// a set-up phase run on the main simulated thread (prefill) and a timed
// phase driven from it.
type workload struct {
	name    string
	why     string
	profile bench.Profile
	kind    malloc.Kind
	// predicted names the layers the host CPU profile should be dominated by.
	predicted []string
	setup     func(r *rep, main *sim.Thread)
	run       func(r *rep, main *sim.Thread)
}

// Default lengths, chosen so one timed phase takes a few tenths of a host
// second.
const (
	chainsObjects   = 500
	chainsRounds    = 80
	handoffObjs     = 60
	mapchurnOpsEach = 350
)

// newWorkload returns the named workload at its default length.
func newWorkload(name string) (*workload, error) {
	switch name {
	case "chains":
		return chains(chainsObjects, chainsRounds), nil
	case "handoff":
		return handoff(handoffObjs), nil
	case "mapchurn":
		return mapchurn(mapchurnOpsEach), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want chains, handoff or mapchurn)", name)
}

// chains is benchmark 2's producer chains as in experiment F8: seven chains
// on the quad Xeon with ptmalloc, each holding objects of 40 B. The chains
// hold fewer objects than the paper's 10,000 and run more rounds, which
// keeps the simulator's host working set small enough that other load on
// the host moves the figures less. Every round
// a fresh thread replaces about half of its chain's objects, one free then
// one malloc at a time, then spawns and joins its successor. Each object is
// stamped after Malloc and the stamp is checked before Free.
func chains(objects, rounds int) *workload {
	const (
		nChains = 7
		size    = 40
		replace = 0.5
	)
	var arrays []uint64
	var want [][]uint32
	return &workload{
		name:      "chains",
		why:       "benchmark 2 producer chains on ptmalloc: heap bin walks and cache-directory lookups, one new thread per round",
		profile:   bench.QuadXeon500(),
		kind:      malloc.KindPTMalloc,
		predicted: []string{"cache"},
		setup: func(r *rep, main *sim.Thread) {
			arrays = make([]uint64, nChains)
			want = make([][]uint32, nChains)
			for c := range arrays {
				arrays[c] = r.malloc(main, uint32(4*objects))
				want[c] = make([]uint32, objects)
				for i := range want[c] {
					want[c][i] = r.newObject(main, arrays[c], i, size)
				}
			}
		},
		run: func(r *rep, main *sim.Thread) {
			var round func(c, n int) func(*sim.Thread)
			round = func(c, n int) func(*sim.Thread) {
				return func(t *sim.Thread) {
					r.al.AttachThread(t)
					rng := t.RNG()
					for i := 0; i < objects; i++ {
						if rng.Float64() >= replace {
							continue
						}
						r.freeObject(t, arrays[c], i, want[c][i])
						want[c][i] = r.newObject(t, arrays[c], i, size)
					}
					r.al.DetachThread(t)
					if n+1 < rounds {
						r.join(t, r.spawn(t, fmt.Sprintf("chain%d-r%d", c, n+1), round(c, n+1)))
					}
				}
			}
			heads := make([]*sim.Thread, nChains)
			for c := range heads {
				heads[c] = r.spawn(main, fmt.Sprintf("chain%d-r0", c), round(c, 0))
			}
			for _, h := range heads {
				r.join(main, h)
			}
		},
	}
}

// Handoff queue costs, the same as experiment D9's: one empty or full poll,
// and one push or pop.
const (
	pollWork    = 20
	handoffWork = 30
)

// Object fill bytes: the producer initializes the front and back byte, each
// consumer write pass overwrites them.
const (
	producerFront, producerBack = 0xA5, 0x5A
	consumerFront, consumerBack = 0xC3, 0x3C
)

// handoff is experiment D9's producer/consumer fan-out on the 2-node 16-CPU
// host with threadcache: one producer deals sizes {16, 24, 56} to fifteen
// consumers through depth-4 queues, and each consumer re-writes a working
// set of 32 objects per arrival and frees the oldest. Every poll and every
// write pass yields explicitly. An object's fill bytes are checked when it
// is popped and before it is freed.
func handoff(objsPerConsumer int) *workload {
	const (
		threads    = 16
		workingSet = 32
		depth      = 4
	)
	sizes := []uint32{16, 24, 56}
	prof := bench.NUMAServerScale(2, 16)
	type item struct {
		mem  uint64
		size uint32
	}
	type queue struct {
		items []item
		done  bool
	}
	return &workload{
		name:      "handoff",
		why:       "D9 producer/consumer fan-out on threadcache with a yield per poll: engine handoff between simulated threads",
		profile:   prof,
		kind:      malloc.KindThreadCache,
		predicted: []string{"sim"},
		setup:     func(r *rep, main *sim.Thread) {},
		run: func(r *rep, main *sim.Thread) {
			consumers := threads - 1
			queues := make([]*queue, consumers)
			for i := range queues {
				queues[i] = &queue{}
			}
			workers := []*sim.Thread{r.spawn(main, "producer", func(t *sim.Thread) {
				r.al.AttachThread(t)
				defer r.al.DetachThread(t)
				for n := 0; n < objsPerConsumer; n++ {
					size := sizes[n%len(sizes)]
					for _, q := range queues {
						mem := r.malloc(t, size)
						if mem != 0 {
							r.write8(t, mem, producerFront)
							r.write8(t, mem+uint64(size)-1, producerBack)
						}
						for len(q.items) >= depth {
							t.Charge(pollWork)
							r.yield(t)
						}
						q.items = append(q.items, item{mem, size})
						t.Charge(handoffWork)
					}
					r.yield(t)
				}
				for _, q := range queues {
					q.done = true
				}
			})}
			for c := 0; c < consumers; c++ {
				q := queues[c]
				workers = append(workers, r.spawn(main, fmt.Sprintf("consumer-%d", c), func(t *sim.Thread) {
					r.al.AttachThread(t)
					defer r.al.DetachThread(t)
					held := make([]item, 0, workingSet+1)
					writePass := func() {
						for _, h := range held {
							r.write8(t, h.mem, consumerFront)
							r.write8(t, h.mem+uint64(h.size)-1, consumerBack)
							t.Charge(sim.Time(prof.Bench3LoopWork))
						}
						r.yield(t)
					}
					release := func() {
						h := held[0]
						held = held[1:]
						r.checkBytes(h.mem, h.size, consumerFront, consumerBack)
						r.free(t, h.mem)
					}
					for {
						if len(q.items) == 0 {
							if q.done {
								break
							}
							t.Charge(pollWork)
							r.yield(t)
							continue
						}
						it := q.items[0]
						q.items = q.items[1:]
						t.Charge(handoffWork)
						if it.mem == 0 {
							continue
						}
						r.checkBytes(it.mem, it.size, producerFront, producerBack)
						held = append(held, it)
						writePass()
						if len(held) > workingSet {
							release()
						}
					}
					for len(held) > 0 {
						writePass()
						release()
					}
				}))
			}
			for _, wk := range workers {
				r.join(main, wk)
			}
		},
	}
}

// mapchurn is the Larson server loop with 160 KB objects on the quad Xeon
// with ptmalloc: eight threads each own 40 slots and replace a random slot
// per operation. The size is above the mmap threshold, so every Malloc maps
// a fresh region and every Free unmaps one. Objects are stamped after
// Malloc and checked before Free.
func mapchurn(opsEach int) *workload {
	const (
		threads = 8
		slots   = 40
		size    = 160 * 1024
	)
	var arrays []uint64
	var want [][]uint32
	return &workload{
		name:      "mapchurn",
		why:       "Larson with 160 KB objects on ptmalloc: every malloc is an mmap and every free a munmap, so vm unmaps and cache drops",
		profile:   bench.QuadXeon500(),
		kind:      malloc.KindPTMalloc,
		predicted: []string{"vm", "cache"},
		setup: func(r *rep, main *sim.Thread) {
			arrays = make([]uint64, threads)
			want = make([][]uint32, threads)
			for w := range arrays {
				arrays[w] = r.malloc(main, 4*slots)
				want[w] = make([]uint32, slots)
				for s := range want[w] {
					want[w][s] = r.newObject(main, arrays[w], s, size)
				}
			}
		},
		run: func(r *rep, main *sim.Thread) {
			workers := make([]*sim.Thread, threads)
			for w := range workers {
				w := w
				workers[w] = r.spawn(main, fmt.Sprintf("larson-%d", w), func(t *sim.Thread) {
					r.al.AttachThread(t)
					defer r.al.DetachThread(t)
					rng := t.RNG()
					for op := 0; op < opsEach; op++ {
						s := rng.Intn(slots)
						r.freeObject(t, arrays[w], s, want[w][s])
						want[w][s] = r.newObject(t, arrays[w], s, size)
					}
				})
			}
			for _, wk := range workers {
				r.join(main, wk)
			}
		},
	}
}
