// Package bench implements the paper's three microbenchmarks, the machine
// profiles of its four test hosts, a Larson-style workload generator, and
// the experiment registry that regenerates every table and figure.
package bench

import (
	"fmt"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Profile describes one of the paper's benchmark hosts: CPU count and
// clock, cache geometry, and the calibrated cost constants. The calibration
// targets are the paper's own single-thread scalars (see
// TestCalibration* in internal/bench/bench_test.go); everything multithreaded is then
// a prediction of the model.
type Profile struct {
	Name     string
	CPUs     int
	ClockMHz float64
	// Nodes is the machine's NUMA node count; 0 or 1 is a flat SMP (all of
	// the paper's hosts). Multi-node profiles also set
	// SimCosts.RemoteAccess, the cross-node touch multiplier.
	Nodes int
	// LineShift: log2 of the cache line size (5 = 32 bytes, the L1 line of
	// the P6 and UltraSPARC-II era).
	LineShift uint

	SimCosts   sim.Costs
	CacheCosts cache.Costs
	VMCosts    vm.Costs
	AllocCosts malloc.CostParams

	// Per-machine reclamation tuning: the epoch interval, decay rate and
	// binned-release resident pad a scavenger-enabled run on this machine
	// should use (D3-style experiments read them via ScavengeCosts instead
	// of hardcoding one 2ms/50% policy for every host). They do NOT enable
	// the scavenger by themselves — AllocCosts.ScavengeInterval stays 0, so
	// throughput experiments measure exactly what they always did.
	ScavengeInterval int64
	ScavengeDecay    int
	ScavengeBinPad   int64

	// Allocator is the design every instance on this machine runs, priced
	// by AllocCosts. The profiles set the platform's own allocator;
	// experiments and tools select another design, or ablate a cost, on
	// their copy of the profile.
	Allocator malloc.Kind
	// HeapParams are the platform allocator's tunables.
	HeapParams heap.Params

	// Bench3LoopWork is the non-memory work per write-loop iteration of
	// benchmark 3 (loop control and address arithmetic).
	Bench3LoopWork int64

	// BootstrapPages models program + C library startup faults (the
	// constant term of benchmark 2's fault predictor).
	BootstrapPages int
}

// ScavengeCosts returns the profile's allocator costs with the reclamation
// subsystem switched on at the machine's own tuning (falling back to a 2ms
// epoch at the machine's clock when the profile predates the per-machine
// fields). Experiments that study reclamation (D3, D4) use this instead of
// one hardcoded policy for every host.
func (p Profile) ScavengeCosts() malloc.CostParams {
	c := p.AllocCosts
	c.ScavengeInterval = p.ScavengeInterval
	if c.ScavengeInterval <= 0 {
		c.ScavengeInterval = int64(0.002 * p.ClockMHz * 1e6)
	}
	c.ScavengeDecay = p.ScavengeDecay
	c.ScavengeBinPad = p.ScavengeBinPad
	return c
}

// DualPPro200 is the paper's first host: dual 200 MHz Pentium Pro, Red Hat
// 5.1, glibc 2.0.6, kernel 2.2.0-pre4. Calibration target: 10 M
// malloc/free pairs of 512 bytes in 23.28 s single-threaded.
func DualPPro200() Profile {
	p := Profile{
		Name:      "dual-ppro-200",
		CPUs:      2,
		ClockMHz:  200,
		LineShift: 5,
		SimCosts: sim.Costs{
			ContextSwitch:   3000,
			ThreadSpawn:     50000,
			JoinCost:        2000,
			MutexAtomic:     18,
			MutexHandoff:    500,
			MutexHotWindow:  200000,
			MutexMaxWait:    4000,
			DeschedResidual: 2500,
			SpawnJitter:     4000,
		},
		CacheCosts: cache.Costs{Hit: 2, MissMemory: 35, MissRemote: 55, Upgrade: 10},
		VMCosts:    vm.Costs{Syscall: 600, KernelHold: 800, PageFault: 1400},
		AllocCosts: malloc.CostParams{
			WorkMalloc: 190,
			WorkFree:   154,
			TSDRead:    8,
			// Charged per operation; a pair pays SharedTaxUnit*(s-1)/s
			// twice, reproducing the ~12% thread-vs-process tax at s=2.
			SharedTaxUnit:      55,
			MainArenaSloshUnit: 0, // not observed on this host
		},
		Allocator:      malloc.KindPTMalloc,
		HeapParams:     heap.DefaultParams(),
		Bench3LoopWork: 6,
		BootstrapPages: 10,
		// 4ms epochs at 200 MHz: scavenge work is a bigger slice of this
		// machine, so reclamation runs at half the cadence of the Xeon; the
		// bin pad halves with the era's memory sizes.
		ScavengeInterval: 800_000,
		ScavengeDecay:    50,
		ScavengeBinPad:   128 << 10,
	}
	return p
}

// QuadXeon500 is the Intel SC450NX: four 500 MHz Pentium III Xeons, 512 KB
// L2, Red Hat 6.1, kernel 2.2.13/14. Calibration targets: 10.39 s for the
// single-thread pair loop; 2.102 s for benchmark 3's single-thread 100 M
// writes.
func QuadXeon500() Profile {
	p := Profile{
		Name:      "quad-xeon-500",
		CPUs:      4,
		ClockMHz:  500,
		LineShift: 5,
		SimCosts: sim.Costs{
			ContextSwitch:   4000,
			ThreadSpawn:     60000,
			JoinCost:        2000,
			MutexAtomic:     20,
			MutexHandoff:    600,
			MutexHotWindow:  250000,
			MutexMaxWait:    4000,
			DeschedResidual: 3000,
			SpawnJitter:     5000,
		},
		CacheCosts: cache.Costs{Hit: 2, MissMemory: 45, MissRemote: 70, Upgrade: 12},
		VMCosts:    vm.Costs{Syscall: 700, KernelHold: 900, PageFault: 1600},
		AllocCosts: malloc.CostParams{
			WorkMalloc: 208,
			WorkFree:   178,
			TSDRead:    10,
			// ~19% thread-vs-process tax at s=2 (two charges per pair).
			SharedTaxUnit: 100,
			// Table 4's 12.6 s vs 14.8 s bimodality: the main-arena thread
			// pays 2*57*(s-2) cycles per pair once a third thread joins.
			MainArenaSloshUnit: 57,
		},
		Allocator:      malloc.KindPTMalloc,
		HeapParams:     heap.DefaultParams(),
		Bench3LoopWork: 7,
		BootstrapPages: 10,
		// The D3 tuning this host always ran: 2ms epochs at 500 MHz, 50%
		// decay, default bin pad (0 = the allocator's 256KB).
		ScavengeInterval: 1_000_000,
		ScavengeDecay:    50,
	}
	return p
}

// SunUltra2x400 is the two-CPU 400 MHz Sun Ultra AX-MP running Solaris 2.6
// with its single-lock libc allocator. Calibration target: 6.05 s
// single-thread; the two-thread collapse (54.3 s) is then produced by the
// lock convoy model.
func SunUltra2x400() Profile {
	p := Profile{
		Name:      "sun-ultra-2x400",
		CPUs:      2,
		ClockMHz:  400,
		LineShift: 5,
		SimCosts: sim.Costs{
			ContextSwitch:   4000,
			ThreadSpawn:     60000,
			JoinCost:        2000,
			MutexAtomic:     16,
			MutexHandoff:    530, // wakeup + allocator metadata sloshing per handoff
			MutexHotWindow:  400000,
			MutexMaxWait:    4000,
			DeschedResidual: 3000,
			SpawnJitter:     5000,
		},
		CacheCosts: cache.Costs{Hit: 2, MissMemory: 40, MissRemote: 65, Upgrade: 10},
		VMCosts:    vm.Costs{Syscall: 650, KernelHold: 850, PageFault: 1500},
		AllocCosts: malloc.CostParams{
			// The Solaris allocator is the fastest single-thread allocator
			// in the paper (6 s at 400 MHz vs 10.4 s at 500 MHz).
			WorkMalloc:    77,
			WorkFree:      67,
			TSDRead:       0, // no TSD: one heap
			SharedTaxUnit: 0, // contention dominates; no separate tax
		},
		Allocator:      malloc.KindSerial,
		HeapParams:     heap.DefaultParams(),
		Bench3LoopWork: 5,
		BootstrapPages: 10,
		// 2ms at 400 MHz; the single-lock libc has no parking tiers, so this
		// only matters when a threadcache run borrows the host.
		ScavengeInterval: 800_000,
		ScavengeDecay:    50,
		ScavengeBinPad:   128 << 10,
	}
	return p
}

// K6_400 is the custom-built 400 MHz AMD K6-2 workstation (Red Hat 6.0,
// kernel 2.2.14) benchmark 2 runs on: a uniprocessor, so heap leakage there
// comes from preemption inside allocator critical sections.
func K6_400() Profile {
	p := Profile{
		Name:      "k6-400",
		CPUs:      1,
		ClockMHz:  400,
		LineShift: 5,
		SimCosts: sim.Costs{
			ContextSwitch:   3500,
			ThreadSpawn:     55000,
			JoinCost:        2000,
			MutexAtomic:     18,
			MutexHandoff:    500,
			MutexHotWindow:  200000,
			MutexMaxWait:    4000,
			DeschedResidual: 2500,
			SpawnJitter:     4000,
		},
		CacheCosts: cache.Costs{Hit: 2, MissMemory: 40, MissRemote: 60, Upgrade: 10},
		VMCosts:    vm.Costs{Syscall: 650, KernelHold: 850, PageFault: 1500},
		AllocCosts: malloc.CostParams{
			WorkMalloc: 170,
			WorkFree:   140,
			TSDRead:    8,
		},
		Allocator:      malloc.KindPTMalloc,
		HeapParams:     heap.DefaultParams(),
		Bench3LoopWork: 6,
		BootstrapPages: 10,
		// A uniprocessor pays every inline scavenge pass out of its only
		// CPU: long 4ms epochs and a gentle 25%/epoch decay, with the
		// smallest bin pad (64MB-class machine).
		ScavengeInterval: 1_600_000,
		ScavengeDecay:    25,
		ScavengeBinPad:   64 << 10,
	}
	return p
}

// NUMAServer is the forward-looking host the locality experiment (D4) runs
// on: eight 500 MHz CPUs spread over the given number of nodes (1, 2 or 4),
// with a 2.0x remote-access multiplier — mid-range for early cc-NUMA
// interconnects (Sun WildFire / SGI Origin class, remote:local latency
// between 1.5x and 3x). The flat 1-node variant is the control: the same
// machine with the interconnect charge turned off. CPU, cache, VM and
// allocator costs are the quad Xeon's, so the only variable across the
// profile family is where memory lives.
func NUMAServer(nodes int) Profile {
	p := QuadXeon500()
	p.Name = fmt.Sprintf("numa-500-%dn", nodes)
	p.CPUs = 8
	p.Nodes = nodes
	if nodes > 1 {
		p.SimCosts.RemoteAccess = 2.0
	}
	p.Allocator = malloc.KindThreadCache
	return p
}

// NUMAServerScale widens the numa-500 family past D4's 8 CPUs for the
// contention-scaling experiment (D5): the same per-CPU costs and 2.0x
// interconnect, but with the CPU count a parameter so 16-, 32- and 64-thread
// sweeps run without timesharing noise. Name: "numa-500-<n>n<c>c".
func NUMAServerScale(nodes, cpus int) Profile {
	p := QuadXeon500()
	p.Name = fmt.Sprintf("numa-500-%dn%dc", nodes, cpus)
	p.CPUs = cpus
	p.Nodes = nodes
	if nodes > 1 {
		p.SimCosts.RemoteAccess = 2.0
	}
	p.Allocator = malloc.KindThreadCache
	return p
}

// OriginServer is the high-ratio end of the cc-NUMA spectrum: an SGI
// Origin-class interconnect where a remote touch costs 2.8x a local one
// (published Origin 2000 remote:local latency sits between 2.5x and 3x,
// versus the ~2x of the Sun WildFire class NUMAServer models). Everything
// else is the numa-500 machine, so runs differing only in the profile isolate
// how the allocator rankings shift as remote memory gets more expensive.
func OriginServer(nodes, cpus int) Profile {
	p := NUMAServerScale(nodes, cpus)
	p.Name = fmt.Sprintf("origin-500-%dn%dc", nodes, cpus)
	p.SimCosts.RemoteAccess = 2.8
	return p
}

// Profiles returns every machine profile by name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"dual-ppro-200":    DualPPro200(),
		"quad-xeon-500":    QuadXeon500(),
		"sun-ultra-2x400":  SunUltra2x400(),
		"k6-400":           K6_400(),
		"numa-500-1n":      NUMAServer(1),
		"numa-500-2n":      NUMAServer(2),
		"numa-500-4n":      NUMAServer(4),
		"numa-500-4n64c":   NUMAServerScale(4, 64),
		"origin-500-4n64c": OriginServer(4, 64),
	}
}

// ProfileByName looks a profile up, with a helpful error.
func ProfileByName(name string) (Profile, error) {
	p, ok := Profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("bench: unknown profile %q (have dual-ppro-200, quad-xeon-500, sun-ultra-2x400, k6-400, numa-500-{1,2,4}n, numa-500-4n64c, origin-500-4n64c)", name)
	}
	return p, nil
}
