package bench

import (
	"reflect"
	"testing"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

// TestOffloadedLarsonDeterministic: two identical fixed-seed Larson runs
// with the service threads on produce bit-identical results — throughput,
// faults, allocator counters and telemetry totals. The rotating workload
// makes most frees cross-thread, so the mailbox exchange, the post-time
// home routing of remote batches and the pinned service threads all run,
// and none may introduce any host-order dependence.
func TestOffloadedLarsonDeterministic(t *testing.T) {
	for _, kind := range []malloc.Kind{malloc.KindThreadCacheSvc, malloc.KindLockFreeSvc} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func() LarsonRun {
				t.Helper()
				prof := NUMAServerScale(2, 8)
				prof.Allocator = kind
				cfg := LarsonConfig{
					Profile: prof, Threads: 8, Slots: 50,
					MinSize: 10, MaxSize: 100, Ops: 300, Runs: 1, Seed: 7,
					Rotate: true, Telemetry: &telemetry.Config{},
				}
				res, err := RunLarson(cfg)
				if err != nil {
					t.Fatalf("RunLarson: %v", err)
				}
				return res.Runs[0]
			}
			a, b := run(), run()
			if a.Throughput != b.Throughput || a.WallSeconds != b.WallSeconds {
				t.Errorf("throughput/wall differ across identical runs: %v/%v vs %v/%v",
					a.Throughput, a.WallSeconds, b.Throughput, b.WallSeconds)
			}
			as, bs := a.AllocStats, b.AllocStats
			if as.VM.MinorFaults != bs.VM.MinorFaults || as.ArenaCount != bs.ArenaCount {
				t.Errorf("faults/arenas differ: %d/%d vs %d/%d",
					as.VM.MinorFaults, as.ArenaCount, bs.VM.MinorFaults, bs.ArenaCount)
			}
			if !reflect.DeepEqual(a.AllocStats, b.AllocStats) {
				t.Errorf("allocator stats differ:\n%+v\nvs\n%+v", a.AllocStats, b.AllocStats)
			}
			ra, rb := a.Telemetry.Report(), b.Telemetry.Report()
			if ra.TotalMallocCycles != rb.TotalMallocCycles ||
				ra.TotalFreeCycles != rb.TotalFreeCycles ||
				ra.TotalMailboxCycles != rb.TotalMailboxCycles {
				t.Errorf("telemetry cycle totals differ: %d/%d/%d vs %d/%d/%d",
					ra.TotalMallocCycles, ra.TotalFreeCycles, ra.TotalMailboxCycles,
					rb.TotalMallocCycles, rb.TotalFreeCycles, rb.TotalMailboxCycles)
			}
			if a.AllocStats.SvcEpochs == 0 {
				t.Error("service never ran an epoch — the determinism check exercised nothing")
			}
		})
	}
}
