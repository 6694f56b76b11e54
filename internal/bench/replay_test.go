package bench

import (
	"strconv"
	"testing"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

// These golden values were captured from the experiment harness before the
// contention-pricing refactor (the ContentionPoint abstraction, the pluggable
// depot, and the buddy backend). The four mutex-priced designs must re-derive
// them bit-for-bit: the refactor may add new code paths, but the existing
// kinds' charge sequences, RNG draw order, and scheduling decisions must be
// untouched. Throughputs are compared as exact float64 values (hex encoded to
// survive source formatting); counters are compared exactly.

func hexf(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden constant %q: %v", s, err)
	}
	return v
}

func wantf(t *testing.T, what string, got float64, wantHex string) {
	t.Helper()
	if want := hexf(t, wantHex); got != want {
		t.Errorf("%s = %v (%s), want %s (bit-identical replay broken)",
			what, got, strconv.FormatFloat(got, 'x', -1, 64), wantHex)
	}
}

func wantu(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want %d (bit-identical replay broken)", what, got, want)
	}
}

// replayName names a replay subtest: the kind alone for a one-run row, the
// kind and the checked run's index for a multi-run (seed-stride) row.
func replayName(kind malloc.Kind, runs int) string {
	if runs == 1 {
		return string(kind)
	}
	return string(kind) + "-run" + strconv.Itoa(runs-1)
}

// TestReplayBench1 replays the D1 benchmark-1 configuration for each of the
// four pre-refactor kinds and checks per-thread times and lock counters
// against pre-refactor goldens. The two-run serial row checks run 1, whose
// scheduling jitter differs from run 0's, so it pins the 7919 seed stride.
func TestReplayBench1(t *testing.T) {
	goldens := []struct {
		kind      malloc.Kind
		runs      int
		perThread [4]string
		trylock   uint64
		lockAcqs  uint64
		arenas    int
	}{
		{malloc.KindPTMalloc, 1,
			[4]string{"0x1.067ec6fccb8f8p-05", "0x1.b4a9684c4d3e3p-06", "0x1.b4da63747fbfep-06", "0x1.b48ed0c65f281p-06"},
			12, 160000, 4},
		{malloc.KindSerial, 1,
			[4]string{"0x1.9cab0a4086eap-03", "0x1.35af1dc2e7237p-03", "0x1.8e75acb304825p-03", "0x1.879213a488c72p-03"},
			0, 160000, 1},
		{malloc.KindPerThread, 1,
			[4]string{"0x1.b408838fca967p-06", "0x1.b4a43f9879e78p-06", "0x1.b4bdbff226812p-06", "0x1.b43cf155a0cefp-06"},
			0, 160000, 5},
		{malloc.KindThreadCache, 1,
			[4]string{"0x1.4a345f35ce20cp-07", "0x1.18facdbc0b08ap-07", "0x1.19a0d06f9995fp-07", "0x1.185231502f177p-07"},
			0, 4, 4},
		{malloc.KindSerial, 2,
			[4]string{"0x1.9c7405fb05892p-03", "0x1.35aefbab8782cp-03", "0x1.956ccf3eca9eap-03", "0x1.7fd77cff042c9p-03"},
			0, 160000, 1},
	}
	for _, g := range goldens {
		g := g
		t.Run(replayName(g.kind, g.runs), func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = g.kind
			cfg := B1Config{
				Profile: prof,
				Threads: 4,
				Size:    512,
				Pairs:   20000,
				Runs:    g.runs,
				Seed:    1,
			}
			res, err := RunBench1(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) != g.runs {
				t.Fatalf("%d runs, want %d", len(res.Runs), g.runs)
			}
			run := res.Runs[g.runs-1]
			if len(run.PerThread) != 4 {
				t.Fatalf("PerThread count = %d, want 4", len(run.PerThread))
			}
			for i, v := range run.PerThread {
				wantf(t, "PerThread["+strconv.Itoa(i)+"]", v, g.perThread[i])
			}
			wantu(t, "TrylockFailures", run.AllocStats.TrylockFailures, g.trylock)
			wantu(t, "ArenaLockAcqs", run.AllocStats.ArenaLockAcqs, g.lockAcqs)
			if run.AllocStats.ArenaCount != g.arenas {
				t.Errorf("ArenaCount = %d, want %d", run.AllocStats.ArenaCount, g.arenas)
			}
		})
	}
}

// TestReplayLarson replays the D1/D2 Larson configuration for each kind.
// The two-run thread-cache row checks run 1, pinning the 65537 seed stride.
func TestReplayLarson(t *testing.T) {
	goldens := []struct {
		kind              malloc.Kind
		runs              int
		throughput        string
		faults            uint64
		lockAcqs          uint64
		depotHits, depotD uint64
	}{
		{malloc.KindPTMalloc, 1, "0x1.c7b2abf1d8b82p+20", 86, 28004, 0, 0},
		{malloc.KindSerial, 1, "0x1.324956000cd8bp+18", 82, 28004, 0, 0},
		{malloc.KindPerThread, 1, "0x1.029d02436f0ep+21", 87, 28004, 0, 0},
		{malloc.KindThreadCache, 1, "0x1.c9fdaee43f3d4p+21", 153, 306, 67, 145},
		{malloc.KindThreadCache, 2, "0x1.ca0dbdc875129p+21", 154, 309, 78, 160},
	}
	for _, g := range goldens {
		g := g
		t.Run(replayName(g.kind, g.runs), func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = g.kind
			cfg := DefaultLarson(prof)
			cfg.Threads = 4
			cfg.Ops = 3000
			cfg.Runs = g.runs
			cfg.Seed = 1
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) != g.runs {
				t.Fatalf("%d runs, want %d", len(res.Runs), g.runs)
			}
			run := res.Runs[g.runs-1]
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "MinorFaults", run.AllocStats.VM.MinorFaults, g.faults)
			wantu(t, "ArenaLockAcqs", run.AllocStats.ArenaLockAcqs, g.lockAcqs)
			wantu(t, "DepotHits", run.AllocStats.DepotHits, g.depotHits)
			wantu(t, "DepotDonates", run.AllocStats.DepotDonates, g.depotD)
		})
	}
}

// TestReplayD4Locality replays the D4 NUMA-locality probe (4-node machine,
// sharded vs node-blind) whose remote-access counters depend on the full
// scheduler + vm + pool interleaving.
func TestReplayD4Locality(t *testing.T) {
	goldens := []struct {
		blind      bool
		throughput string
		remote     uint64
		remFrees   uint64
		faults     uint64
	}{
		{false, "0x1.2eeae350b67d1p+22", 0, 0, 296},
		{true, "0x1.1240fb32e2ecep+22", 790, 0, 290},
	}
	for _, g := range goldens {
		g := g
		name := "sharded"
		if g.blind {
			name = "blind"
		}
		t.Run(name, func(t *testing.T) {
			prof := NUMAServer(4)
			prof.Allocator = malloc.KindThreadCache
			prof.AllocCosts.NUMANodeBlind = g.blind
			cfg := DefaultLarson(prof)
			cfg.Threads = 8
			cfg.Ops = 2000
			cfg.Runs = 1
			cfg.Seed = 1
			cfg.TouchObjects = true
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "RemoteAccesses", run.AllocStats.VM.RemoteAccesses, g.remote)
			wantu(t, "RemoteFrees", run.AllocStats.RemoteFrees, g.remFrees)
			wantu(t, "MinorFaults", run.AllocStats.VM.MinorFaults, g.faults)
		})
	}
}

// TestReplayD3Scavenge replays the D3 idle-decay scavenger probe, exercising
// the scavenger cascade and depot decay paths.
func TestReplayD3Scavenge(t *testing.T) {
	prof := QuadXeon500()
	prof.Allocator = malloc.KindThreadCache
	prof.AllocCosts = prof.ScavengeCosts()
	prof.AllocCosts.ScavengeMinBinBytes = 32 << 10
	cfg := DefaultLarson(prof)
	cfg.Threads = 4
	cfg.Ops = 2500
	cfg.Runs = 1
	cfg.Seed = 1
	cfg.Phases = []Phase{{Ops: 1500, IdleSeconds: 0.05}, {Ops: 1000}}
	res, err := RunLarson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	wantf(t, "Throughput", run.Throughput, "0x1.707b0c236991dp+17")
	wantu(t, "ScavengeEpochs", run.AllocStats.ScavengeEpochs, 2)
	wantu(t, "ScavengeBytes", run.AllocStats.ScavengeBytes, 130224)
	wantu(t, "PagesReleased", run.AllocStats.VM.PagesReleased, 0)
}

// TestReplayLockFreeScavenge replays the D3 idle-decay shape on the
// lock-free design at the profile's own decay rate (50%), so the depot's
// scavenge keeps survivors and re-attaches them with a second CAS. The
// CAS counters pin that charge sequence: dropping the re-attach CAS moves
// CASAttempts.
func TestReplayLockFreeScavenge(t *testing.T) {
	prof := QuadXeon500()
	prof.Allocator = malloc.KindLockFree
	prof.AllocCosts = prof.ScavengeCosts()
	prof.AllocCosts.ScavengeMinBinBytes = 32 << 10
	cfg := DefaultLarson(prof)
	cfg.Threads = 4
	cfg.Ops = 2500
	cfg.Runs = 1
	cfg.Seed = 1
	cfg.Phases = []Phase{{Ops: 1500, IdleSeconds: 0.05}, {Ops: 1000}}
	res, err := RunLarson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	s := run.AllocStats
	wantf(t, "Throughput", run.Throughput, "0x1.78d6ca307f182p+17")
	wantu(t, "ScavengeEpochs", s.ScavengeEpochs, 1)
	wantu(t, "ScavengeBytes", s.ScavengeBytes, 129520)
	wantu(t, "PagesReleased", s.VM.PagesReleased, 0)
	wantu(t, "CASAttempts", s.CASAttempts, 440)
	wantu(t, "CASFails", s.CASFails, 36)
}

// The goldens below extend the oracle to D5, D6, D9 and D10. They were
// captured before serial, ptmalloc and perthread were merged into one
// arena-list type and before the thread-cache design selectors moved from
// CostParams into the allocator kind; all seven kinds must re-derive them.

// TestReplayD5Scaling replays the D5 contention-scaling point at 16 threads
// on the 64-CPU 4-node host for all five designs.
func TestReplayD5Scaling(t *testing.T) {
	goldens := []struct {
		kind                      malloc.Kind
		throughput                string
		arenaLocks, depotLocks    uint64
		trylock, casAtt, casFails uint64
		casRetry                  uint64
	}{
		{malloc.KindSerial, "0x1.b28a38f1346a6p+18", 9616, 0, 0, 0, 0, 0},
		{malloc.KindPTMalloc, "0x1.0fa99fa8b0d55p+20", 9616, 0, 96, 0, 0, 0},
		{malloc.KindPerThread, "0x1.39570a5cee6e4p+20", 9616, 0, 0, 0, 0, 0},
		{malloc.KindThreadCache, "0x1.596daef13fe16p+20", 235, 685, 0, 0, 0, 0},
		{malloc.KindLockFree, "0x1.6e0a92a6f64fp+20", 0, 0, 0, 650, 1, 80},
	}
	for _, g := range goldens {
		g := g
		t.Run(string(g.kind), func(t *testing.T) {
			prof := NUMAServerScale(4, 64)
			prof.Allocator = g.kind
			cfg := LarsonConfig{Profile: prof, Threads: 16, Slots: 200,
				MinSize: 10, MaxSize: 100, Ops: 200, Runs: 1, Seed: 1}
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			s := run.AllocStats
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "ArenaLockAcqs", s.ArenaLockAcqs, g.arenaLocks)
			wantu(t, "DepotLockAcqs", s.DepotLockAcqs, g.depotLocks)
			wantu(t, "TrylockFailures", s.TrylockFailures, g.trylock)
			wantu(t, "CASAttempts", s.CASAttempts, g.casAtt)
			wantu(t, "CASFails", s.CASFails, g.casFails)
			wantu(t, "CASRetryCycles", s.CASRetryCycles, g.casRetry)
		})
	}
}

// TestReplayD6Pressure replays D6 below-peak commit-limit rows. Serial runs
// the D6 Larson shape at 0.95x its peak, living off the emergency cascade.
// Perthread cannot survive any limit below peak in that shape (its last
// private arena's creation is the peak), so its row uses larger objects,
// whose private arenas must grow: at 0.97x peak the growth fails with
// ErrNoMemory and the requests overflow to the main arena.
func TestReplayD6Pressure(t *testing.T) {
	goldens := []struct {
		kind                  malloc.Kind
		maxSize               uint32
		ratio                 float64
		peak                  uint64
		throughput            string
		emerg, retries, fails uint64
		skips, commitFails    uint64
	}{
		{malloc.KindSerial, 400, 0.95, 991232, "0x1.bb55a1eb4a537p+17", 1138, 1138, 550, 550, 3376},
		{malloc.KindPerThread, 2000, 0.97, 3153920, "0x1.47132b038e29cp+20", 1, 1, 0, 0, 73},
	}
	for _, g := range goldens {
		g := g
		t.Run(string(g.kind), func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = g.kind
			cfg := LarsonConfig{Profile: prof, Threads: 4, Slots: 500,
				MinSize: 10, MaxSize: g.maxSize, Ops: 2000, Runs: 1, Seed: 1}
			base, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			peak := base.Runs[0].AllocStats.VM.PeakCommitted
			wantu(t, "PeakCommitted", peak, g.peak)
			cfg.MemLimit = uint64(g.ratio * float64(peak))
			cfg.TolerateOOM = true
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			s := run.AllocStats
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "EmergencyScavenges", s.EmergencyScavenges, g.emerg)
			wantu(t, "OOMRetries", s.OOMRetries, g.retries)
			wantu(t, "OOMFails", s.OOMFails, g.fails)
			wantu(t, "OOMSkips", run.OOMSkips, g.skips)
			wantu(t, "CommitFails", s.VM.CommitFails, g.commitFails)
		})
	}
}

// TestReplayD9Placement replays the D9 producer-consumer handoff at 4
// threads on the 16-CPU 2-node host, blind and line-aware, for both
// magazine designs.
func TestReplayD9Placement(t *testing.T) {
	goldens := []struct {
		kind           malloc.Kind
		aware          bool
		throughput     string
		c2c, c2cCycles uint64
		resident       uint64
		quant, color   uint64
		sharedLines    int
	}{
		{malloc.KindThreadCache, false, "0x1.6899f0f5da2dcp+17", 1243, 87010, 65536, 0, 0, 0},
		{malloc.KindThreadCache, true, "0x1.711288ef6e44cp+17", 287, 20090, 65536, 336, 0, 0},
		{malloc.KindLockFree, false, "0x1.73b5bd64689b6p+17", 1338, 93660, 77824, 0, 0, 0},
		{malloc.KindLockFree, true, "0x1.87fd371be0cd8p+17", 159, 11130, 73728, 336, 96, 0},
	}
	for _, g := range goldens {
		g := g
		mode := "blind"
		if g.aware {
			mode = "lineaware"
		}
		t.Run(string(g.kind)+"/"+mode, func(t *testing.T) {
			prof := NUMAServerScale(2, 16)
			cfg := DefaultPlacement(prof)
			cfg.Threads = 4
			cfg.ObjsPerConsumer = 40
			cfg.Profile.Allocator = g.kind
			cfg.Profile.AllocCosts.LineAware = g.aware
			r, err := RunPlacement(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := r.AllocStats
			wantf(t, "Throughput", r.Throughput, g.throughput)
			wantu(t, "FillC2C", s.VM.FillC2C, g.c2c)
			wantu(t, "FillC2CCycles", s.VM.FillC2CCycles, g.c2cCycles)
			wantu(t, "ResidentBytes", s.VM.ResidentBytes, g.resident)
			wantu(t, "LineQuantBytes", s.LineQuantBytes, g.quant)
			wantu(t, "LineColorBytes", s.LineColorBytes, g.color)
			wantu(t, "SharedMagazineLines", uint64(r.SharedMagazineLines), uint64(g.sharedLines))
		})
	}
}

// TestReplayD10Offload replays the D10 rotating-Larson point at 16 threads
// on the 64-CPU 4-node host for both offloaded kinds, telemetry on.
func TestReplayD10Offload(t *testing.T) {
	goldens := []struct {
		kind                     malloc.Kind
		throughput               string
		appCycles, mailboxCycles uint64
		hits, prefetches, drains uint64
		fallbacks, epochs        uint64
	}{
		{malloc.KindThreadCacheSvc, "0x1.3d9bf3c631d81p+20", 1928815, 3277940, 263, 782, 1, 0, 41},
		{malloc.KindLockFreeSvc, "0x1.534838c056fa1p+20", 1153637, 654208, 366, 881, 26, 0, 87},
	}
	for _, g := range goldens {
		g := g
		t.Run(string(g.kind), func(t *testing.T) {
			prof := NUMAServerScale(4, 64)
			prof.Allocator = g.kind
			cfg := LarsonConfig{Profile: prof, Threads: 16, Slots: 200,
				MinSize: 10, MaxSize: 100, Ops: 200, Runs: 1, Seed: 1,
				Rotate: true, Telemetry: &telemetry.Config{}}
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			rep := run.Telemetry.Report()
			s := run.AllocStats
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "app cycles", rep.TotalMallocCycles+rep.TotalFreeCycles, g.appCycles)
			wantu(t, "TotalMailboxCycles", rep.TotalMailboxCycles, g.mailboxCycles)
			wantu(t, "SvcRefillHits", s.SvcRefillHits, g.hits)
			wantu(t, "SvcPrefetches", s.SvcPrefetches, g.prefetches)
			wantu(t, "SvcDrains", s.SvcDrains, g.drains)
			wantu(t, "SvcFallbacks", s.SvcFallbacks, g.fallbacks)
			wantu(t, "SvcEpochs", s.SvcEpochs, g.epochs)
		})
	}
}

// TestReplayBench2 replays an F8-shaped benchmark-2 run (quad Xeon, seven
// chains) on ptmalloc and the thread cache: the paper's fault benchmark,
// judged on minor page faults. Two runs per row pin the per-run seed
// stride as well as the counters.
func TestReplayBench2(t *testing.T) {
	type runGolden struct {
		faults, peakMapped, lockAcqs uint64
		arenas                       int
	}
	goldens := []struct {
		kind malloc.Kind
		runs [2]runGolden
	}{
		{malloc.KindPTMalloc, [2]runGolden{{446, 5189632, 55679, 14}, {454, 5189632, 55941, 14}}},
		{malloc.KindThreadCache, [2]runGolden{{219, 3555328, 876, 1}, {219, 3555328, 876, 1}}},
	}
	for _, g := range goldens {
		g := g
		t.Run(string(g.kind), func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = g.kind
			cfg := DefaultB2(prof)
			cfg.Threads = 7
			cfg.Rounds = 3
			cfg.Objects = 2000
			cfg.Runs = 2
			res, err := RunBench2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Runs) != len(g.runs) {
				t.Fatalf("%d runs, want %d", len(res.Runs), len(g.runs))
			}
			for i, run := range res.Runs {
				w := g.runs[i]
				s := run.AllocStats
				wantu(t, "MinorFaults", s.VM.MinorFaults, w.faults)
				wantu(t, "PeakMapped", s.VM.PeakMapped, w.peakMapped)
				wantu(t, "ArenaLockAcqs", s.ArenaLockAcqs, w.lockAcqs)
				if s.ArenaCount != w.arenas {
					t.Errorf("ArenaCount = %d, want %d", s.ArenaCount, w.arenas)
				}
			}
		})
	}
}

// TestReplayBench3 replays benchmark 3 with three 10-byte writers on the
// quad Xeon for two runs. The random warm-up allocations shift run 1's
// placement away from run 0's, so the wall times differ and pin the 31337
// seed stride.
func TestReplayBench3(t *testing.T) {
	goldens := []struct {
		wall   string
		shared int
	}{
		{"0x1.500119c237b74p+04", 1},
		{"0x1.0334cf1dc61fcp+04", 1},
	}
	cfg := DefaultB3(QuadXeon500())
	cfg.Threads = 3
	cfg.Size = 10
	cfg.Runs = 2
	res, err := RunBench3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(goldens) {
		t.Fatalf("%d runs, want %d", len(res.Runs), len(goldens))
	}
	for i, run := range res.Runs {
		wantf(t, "run "+strconv.Itoa(i)+" WallSeconds", run.WallSeconds, goldens[i].wall)
		if run.SharedLines != goldens[i].shared {
			t.Errorf("run %d SharedLines = %d, want %d", i, run.SharedLines, goldens[i].shared)
		}
	}
}
