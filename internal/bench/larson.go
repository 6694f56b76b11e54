package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// LarsonConfig parameterizes the Larson & Krishnan server-simulation
// workload the paper's benchmark 2 is a simplification of: each thread owns
// an array of slots holding objects of uniformly random size in
// [MinSize, MaxSize]; every operation frees a random slot and refills it
// with a fresh allocation. The paper fixed the size to 40 bytes; this is
// the full random-size variant, kept as an extension workload.
type LarsonConfig struct {
	Profile Profile
	Threads int
	Slots   int    // slots per thread
	MinSize uint32 // inclusive
	MaxSize uint32 // inclusive
	Ops     int    // replace operations per thread
	// Phases, when non-empty, replaces the flat Ops loop with a burst/idle
	// schedule: each phase runs its Ops replaces and then sleeps its
	// IdleSeconds before the next burst (bursty server scenarios; D3's
	// footprint experiment uses the same schedule shape).
	Phases []Phase
	// TouchObjects makes each replace fill the fresh object (one write per
	// page) and read the old one's first byte before freeing it — the
	// server actually using its buffers. The locality experiment (D4) turns
	// it on so the cost of serving a thread memory homed on another node is
	// visible: every page of a remotely-homed buffer pays the interconnect
	// multiplier when its lines miss. Off by default, keeping the
	// throughput workloads exactly as they were.
	TouchObjects bool
	// Producers, when > 0, switches to the node-imbalanced handoff variant:
	// the first Producers threads allocate every object and hand each one to
	// a consumer mailbox; the remaining Threads-Producers threads only free.
	// Producers spawn first, so the scheduler packs them onto the
	// lowest-numbered CPUs — one node when Producers <= CPUs/Nodes — and
	// every free is a cross-thread (usually cross-node) free aimed at that
	// node's tier-2/3 structures. The D5 scaling probe uses it to
	// concentrate contention on one node's depot and page backend instead of
	// spreading it evenly. Ops still counts replaces per producer.
	Producers int
	// Rotate switches to the classic Larson & Krishnan "bleeding" handoff,
	// the benchmark's defining structure: memory allocated by one thread is
	// freed by another. Ops is split into RotateRounds rounds; between
	// rounds every thread hands its slot array to the next one, so each
	// round frees objects the array's previous holder allocated — balanced
	// cross-thread (at NUMA scale mostly cross-node) frees, the sustained
	// remote-free and refill traffic a server's allocator actually sees.
	// A full barrier separates rounds so two threads never work one array.
	// Mutually exclusive with Producers, Phases and TolerateOOM.
	Rotate bool
	// RotateRounds is the number of handoff rounds when Rotate is set
	// (default 8, clamped to Ops).
	RotateRounds int
	Runs         int
	Seed         uint64
	// MemLimit, when > 0, caps the instance's committed bytes
	// (vm.SetMemLimit) before the workload starts: growth past it fails
	// with vm.ErrNoMem and the allocator's emergency cascade takes over.
	MemLimit uint64
	// Faults, when non-nil, arms deterministic mmap/sbrk fault injection
	// on the instance's address space (vm.SetFaultInjection).
	Faults *vm.InjectPolicy
	// TolerateOOM makes workers treat an out-of-memory slot refill as a
	// skipped operation (the slot stays empty and is skipped on its next
	// turn) instead of a fatal error; skips are counted in
	// LarsonRun.OOMSkips. Any other failure still aborts the run.
	TolerateOOM bool
	// Telemetry, when non-nil, attaches a telemetry recorder to each run's
	// allocator (per-op latency histograms, tier attribution, time series,
	// trace events; see internal/telemetry). A zero ClockMHz is filled from
	// the profile. The recorder of run i lands in Runs[i].Telemetry.
	// Recording charges no cycles, so enabling it leaves every observable
	// bit-identical.
	Telemetry *telemetry.Config
}

// DefaultLarson returns the conventional parameters.
func DefaultLarson(p Profile) LarsonConfig {
	return LarsonConfig{Profile: p, Threads: 2, Slots: 1000, MinSize: 10, MaxSize: 100, Ops: 50000, Runs: 3, Seed: 1}
}

// LarsonRun is one execution's observables.
type LarsonRun struct {
	WallSeconds float64
	Throughput  float64 // replace ops per simulated second, all threads
	// OOMSkips counts slot refills abandoned because even the emergency
	// cascade could not free enough memory (TolerateOOM runs only).
	OOMSkips uint64
	// AllocStats is the allocator's statistics at the end; its VM field
	// holds the run's syscall, fault and reuse counters.
	AllocStats malloc.Stats
	// Telemetry holds the run's recorder when LarsonConfig.Telemetry asked
	// for one; nil otherwise.
	Telemetry *telemetry.Recorder
}

// LarsonResult aggregates runs.
type LarsonResult struct {
	Config     LarsonConfig
	Runs       []LarsonRun
	Throughput stats.Summary
}

// RunLarson executes the configured runs.
func RunLarson(cfg LarsonConfig) (LarsonResult, error) {
	if len(cfg.Phases) > 0 {
		cfg.Ops = totalOps(cfg.Phases)
	}
	if cfg.Threads < 1 || cfg.Slots < 1 || cfg.Ops < 1 || cfg.MinSize > cfg.MaxSize {
		return LarsonResult{}, fmt.Errorf("larson: bad config %+v", cfg)
	}
	if cfg.Producers < 0 || cfg.Producers >= cfg.Threads {
		return LarsonResult{}, fmt.Errorf("larson: Producers = %d must be in [0, Threads)", cfg.Producers)
	}
	if cfg.Producers > 0 && len(cfg.Phases) > 0 {
		return LarsonResult{}, fmt.Errorf("larson: Producers and Phases are mutually exclusive")
	}
	if cfg.Rotate && (cfg.Producers > 0 || len(cfg.Phases) > 0 || cfg.TolerateOOM) {
		return LarsonResult{}, fmt.Errorf("larson: Rotate excludes Producers, Phases and TolerateOOM")
	}
	runs, err := repeatRuns("larson", cfg.Runs, cfg.Seed, 65537, cfg.runOnce)
	if err != nil {
		return LarsonResult{}, err
	}
	res := LarsonResult{Config: cfg, Runs: runs}
	var xs []float64
	for _, r := range res.Runs {
		xs = append(xs, r.Throughput)
	}
	res.Throughput = stats.Summarize(xs)
	return res, nil
}

func (cfg LarsonConfig) runOnce(seed uint64) (LarsonRun, error) {
	w := NewWorld(cfg.Profile, seed)
	var out LarsonRun
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		if cfg.MemLimit > 0 {
			as.SetMemLimit(cfg.MemLimit)
		}
		if cfg.Faults != nil {
			as.SetFaultInjection(*cfg.Faults)
		}
		var rec *telemetry.Recorder
		if cfg.Telemetry != nil {
			tcfg := *cfg.Telemetry
			if tcfg.ClockMHz <= 0 {
				tcfg.ClockMHz = cfg.Profile.ClockMHz
			}
			rec = telemetry.NewRecorder(tcfg)
			malloc.AttachTelemetry(al, rec)
			out.Telemetry = rec
		}
		// Offloaded designs spawn their per-node service threads before the
		// clock starts and stop them after the last worker joins but outside
		// the measured wall (the stop join only waits out one epoch).
		svc := malloc.ThreadCacheOf(al).Service()
		if svc != nil {
			svc.Start(main)
		}
		start := main.Now()
		if cfg.Producers > 0 || cfg.Rotate {
			if cfg.Producers > 0 {
				runLarsonImbalanced(cfg, w, main, inst)
			} else {
				runLarsonRotate(cfg, w, main, inst)
			}
			wall := w.Seconds(main.Now() - start)
			if svc != nil {
				svc.Stop(main)
			}
			workers := cfg.Threads
			if cfg.Producers > 0 {
				workers = cfg.Producers
			}
			out.WallSeconds = wall
			out.Throughput = float64(cfg.Ops*workers) / wall
			out.AllocStats = al.Stats()
			return
		}
		var oomSkips uint64
		workers := make([]*sim.Thread, cfg.Threads)
		for i := 0; i < cfg.Threads; i++ {
			workers[i] = main.Spawn(fmt.Sprintf("larson-%d", i), func(t *sim.Thread) {
				al.AttachThread(t)
				defer al.DetachThread(t)
				rng := t.RNG()
				randSize := func() uint32 {
					return cfg.MinSize + uint32(rng.Intn(int(cfg.MaxSize-cfg.MinSize)+1))
				}
				// Slot array lives in simulated memory like the real
				// benchmark's does.
				arr, err := al.Malloc(t, uint32(4*cfg.Slots))
				if err != nil {
					panic(fmt.Sprintf("larson: slot array: %v", err))
				}
				for s := 0; s < cfg.Slots; s++ {
					p, err := al.Malloc(t, randSize())
					if err != nil {
						if !cfg.TolerateOOM || !malloc.IsOOM(err) {
							panic(fmt.Sprintf("larson: prefill: %v", err))
						}
						oomSkips++
						p = 0
					}
					as.Write32(t, arr+uint64(4*s), uint32(p))
				}
				replace := func(n int) {
					for op := 0; op < n; op++ {
						s := rng.Intn(cfg.Slots)
						// A zero slot is one an earlier tolerated OOM left
						// empty; there is nothing to free or touch.
						old := uint64(as.Read32(t, arr+uint64(4*s)))
						if old != 0 {
							if cfg.TouchObjects {
								as.Read8(t, old)
							}
							if err := al.Free(t, old); err != nil {
								panic(fmt.Sprintf("larson: free: %v", err))
							}
						}
						sz := randSize()
						p, err := al.Malloc(t, sz)
						if err != nil {
							if !cfg.TolerateOOM || !malloc.IsOOM(err) {
								panic(fmt.Sprintf("larson: alloc: %v", err))
							}
							oomSkips++
							as.Write32(t, arr+uint64(4*s), 0)
							continue
						}
						if cfg.TouchObjects {
							for off := uint64(0); off < uint64(sz); off += vm.PageSize {
								as.Write8(t, p+off, byte(op))
							}
						}
						as.Write32(t, arr+uint64(4*s), uint32(p))
					}
				}
				if len(cfg.Phases) == 0 {
					replace(cfg.Ops)
					return
				}
				for pi, ph := range cfg.Phases {
					phStart := t.Now()
					replace(ph.Ops)
					rec.Span(t, fmt.Sprintf("phase %d burst", pi), "bench", phStart)
					if ph.IdleSeconds > 0 {
						idleStart := t.Now()
						t.Sleep(w.M.Cycles(ph.IdleSeconds))
						rec.Span(t, fmt.Sprintf("phase %d idle", pi), "bench", idleStart)
					}
				}
			})
		}
		for _, wk := range workers {
			main.Join(wk)
		}
		wall := w.Seconds(main.Now() - start)
		if svc != nil {
			svc.Stop(main)
		}
		out.WallSeconds = wall
		out.Throughput = float64(cfg.Ops*cfg.Threads) / wall
		out.AllocStats = al.Stats()
		out.OOMSkips = oomSkips
	})
	return out, err
}

// runLarsonRotate is the Rotate variant: the classic Larson "bleeding"
// structure where each round a thread replaces slots in the array the
// previous round's holder filled. The arrays and the round barrier are
// host-side plumbing (the engine resumes one simulated thread at a time, so
// plain slices and counters are safe); the barrier is the polling kind the
// imbalanced variant's consumers already use.
func runLarsonRotate(cfg LarsonConfig, w *World, main *sim.Thread, inst *Instance) {
	al, as := inst.Alloc, inst.AS
	rounds := cfg.RotateRounds
	if rounds <= 0 {
		rounds = 8
	}
	if rounds > cfg.Ops {
		rounds = cfg.Ops
	}
	arrs := make([]uint64, cfg.Threads)
	arrived := 0 // cumulative count of (worker, round) completions
	workers := make([]*sim.Thread, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		i := i
		workers[i] = main.Spawn(fmt.Sprintf("larson-%d", i), func(t *sim.Thread) {
			al.AttachThread(t)
			defer al.DetachThread(t)
			rng := t.RNG()
			randSize := func() uint32 {
				return cfg.MinSize + uint32(rng.Intn(int(cfg.MaxSize-cfg.MinSize)+1))
			}
			arr, err := al.Malloc(t, uint32(4*cfg.Slots))
			if err != nil {
				panic(fmt.Sprintf("larson: slot array: %v", err))
			}
			for s := 0; s < cfg.Slots; s++ {
				p, err := al.Malloc(t, randSize())
				if err != nil {
					panic(fmt.Sprintf("larson: prefill: %v", err))
				}
				as.Write32(t, arr+uint64(4*s), uint32(p))
			}
			arrs[i] = arr
			done := 0
			for r := 0; r < rounds; r++ {
				n := cfg.Ops / rounds
				if r == rounds-1 {
					n = cfg.Ops - done
				}
				done += n
				// Round r works the array r hops ahead: every object freed
				// was allocated (or last replaced) by another thread.
				cur := arrs[(i+r)%cfg.Threads]
				for op := 0; op < n; op++ {
					s := rng.Intn(cfg.Slots)
					old := uint64(as.Read32(t, cur+uint64(4*s)))
					if cfg.TouchObjects {
						as.Read8(t, old)
					}
					if err := al.Free(t, old); err != nil {
						panic(fmt.Sprintf("larson: free: %v", err))
					}
					sz := randSize()
					p, err := al.Malloc(t, sz)
					if err != nil {
						panic(fmt.Sprintf("larson: alloc: %v", err))
					}
					if cfg.TouchObjects {
						for off := uint64(0); off < uint64(sz); off += vm.PageSize {
							as.Write8(t, p+off, byte(op))
						}
					}
					as.Write32(t, cur+uint64(4*s), uint32(p))
				}
				arrived++
				for arrived < (r+1)*cfg.Threads {
					t.Sleep(2000)
				}
			}
		})
	}
	for _, wk := range workers {
		main.Join(wk)
	}
}

// runLarsonImbalanced is the Producers > 0 variant: producers run the usual
// slot-replace loop but never free — each displaced object goes to a consumer
// mailbox — and consumers do nothing but free. Producers spawn first, so the
// scheduler packs them onto the lowest-numbered CPUs (one node when they fit
// in it), concentrating allocation on that node while frees arrive from every
// other node. The mailboxes are host-side plumbing, not simulated memory: the
// engine resumes one thread at a time, so plain slices are safe.
func runLarsonImbalanced(cfg LarsonConfig, w *World, main *sim.Thread, inst *Instance) {
	al, as := inst.Alloc, inst.AS
	consumers := cfg.Threads - cfg.Producers
	boxes := make([][]uint64, consumers)
	producersDone := 0
	threads := make([]*sim.Thread, 0, cfg.Threads)
	for i := 0; i < cfg.Producers; i++ {
		threads = append(threads, main.Spawn(fmt.Sprintf("larson-prod-%d", i), func(t *sim.Thread) {
			al.AttachThread(t)
			defer al.DetachThread(t)
			rng := t.RNG()
			randSize := func() uint32 {
				return cfg.MinSize + uint32(rng.Intn(int(cfg.MaxSize-cfg.MinSize)+1))
			}
			arr, err := al.Malloc(t, uint32(4*cfg.Slots))
			if err != nil {
				panic(fmt.Sprintf("larson: slot array: %v", err))
			}
			for s := 0; s < cfg.Slots; s++ {
				p, err := al.Malloc(t, randSize())
				if err != nil {
					panic(fmt.Sprintf("larson: prefill: %v", err))
				}
				as.Write32(t, arr+uint64(4*s), uint32(p))
			}
			box := 0
			for op := 0; op < cfg.Ops; op++ {
				s := rng.Intn(cfg.Slots)
				boxes[box] = append(boxes[box], uint64(as.Read32(t, arr+uint64(4*s))))
				box = (box + 1) % consumers
				sz := randSize()
				p, err := al.Malloc(t, sz)
				if err != nil {
					panic(fmt.Sprintf("larson: alloc: %v", err))
				}
				if cfg.TouchObjects {
					for off := uint64(0); off < uint64(sz); off += vm.PageSize {
						as.Write8(t, p+off, byte(op))
					}
				}
				as.Write32(t, arr+uint64(4*s), uint32(p))
			}
			// Hand the surviving slot objects over too, then retire.
			for s := 0; s < cfg.Slots; s++ {
				boxes[box] = append(boxes[box], uint64(as.Read32(t, arr+uint64(4*s))))
				box = (box + 1) % consumers
			}
			if err := al.Free(t, arr); err != nil {
				panic(fmt.Sprintf("larson: free slot array: %v", err))
			}
			producersDone++
		}))
	}
	for j := 0; j < consumers; j++ {
		j := j
		threads = append(threads, main.Spawn(fmt.Sprintf("larson-cons-%d", j), func(t *sim.Thread) {
			al.AttachThread(t)
			defer al.DetachThread(t)
			for {
				if len(boxes[j]) == 0 {
					if producersDone == cfg.Producers {
						return
					}
					t.Sleep(5000) // poll the mailbox like a condvar wait
					continue
				}
				p := boxes[j][len(boxes[j])-1]
				boxes[j] = boxes[j][:len(boxes[j])-1]
				if cfg.TouchObjects {
					as.Read8(t, p)
				}
				if err := al.Free(t, p); err != nil {
					panic(fmt.Sprintf("larson: consumer free: %v", err))
				}
				t.MaybeYield()
			}
		}))
	}
	for _, th := range threads {
		main.Join(th)
	}
}
