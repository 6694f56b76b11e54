package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mtmalloc/internal/vm"
)

// tiny returns each workload at a length that runs in milliseconds.
func tiny() []*workload {
	return []*workload{chains(60, 3), handoff(6), mapchurn(20)}
}

func TestDigestStablePerSeed(t *testing.T) {
	for _, wl := range tiny() {
		first := runRep(wl, 1, nil, nil)
		again := runRep(wl, 1, nil, nil)
		traced := runRep(wl, 1, newTracer(), nil)
		other := runRep(wl, 2, nil, nil)
		for _, r := range []repResult{first, again, traced, other} {
			if r.err != nil {
				t.Fatalf("%s: %v", wl.name, r.err)
			}
		}
		if again.digest != first.digest || traced.digest != first.digest {
			t.Errorf("%s seed 1: digests %s, %s (traced %s) differ", wl.name, first.digest, again.digest, traced.digest)
		}
		if other.digest == first.digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", wl.name, first.digest)
		}
	}
}

func TestRunDigestMatchesTracedRun(t *testing.T) {
	wl := chains(60, 3)
	plain := measure(wl, 7, 0, false, nil)
	traced := measure(wl, 7, 0, true, nil)
	if len(plain.errs)+len(traced.errs) > 0 {
		t.Fatalf("errors: %v %v", plain.errs, traced.errs)
	}
	if plain.digest() != traced.digest() {
		t.Errorf("sim_digest %s untraced, %s traced", plain.digest(), traced.digest())
	}
	if other := measure(wl, 8, 0, false, nil); other.digest() == plain.digest() {
		t.Errorf("seeds 7 and 8 share sim_digest %s", plain.digest())
	}
}

func TestCleanRunHasNoFailures(t *testing.T) {
	m := measure(chains(60, 3), 1, 0, false, nil)
	res := m.result(false)
	if !res.Correct || res.Failed != 0 || m.failedFrac() != 0 || res.Attempted == 0 {
		t.Fatalf("clean run: %+v, errors %v", res, m.errs)
	}
	for _, name := range []string{"sim_ops_per_host_s", "setup_s", "peak_rss_mb", "host_alloc_bytes_per_op"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", name, v)
		}
	}
}

// TestFaultInjectionFailsRun refuses every mapping after set-up, so mapchurn's
// mallocs fail; the run must count all of its ops as failed.
func TestFaultInjectionFailsRun(t *testing.T) {
	m := measure(mapchurn(20), 1, 0, false, &vm.InjectPolicy{BudgetBytes: 1})
	res := m.result(false)
	if res.Correct || m.failedFrac() != 1 || res.Failed != res.Attempted {
		t.Fatalf("injected run: correct %v, failed %d of %d (failed_frac %v)", res.Correct, res.Failed, res.Attempted, m.failedFrac())
	}
	if !strings.Contains(m.errs[0], "malloc") {
		t.Errorf("first failure %q is not the injected malloc error", m.errs[0])
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	m := measure(handoff(6), 1, 0, true, nil)
	res := m.result(true)
	if !res.Correct {
		t.Fatalf("traced run failed: %v", m.errs)
	}
	for _, name := range []string{"sim.yield.self_ns_p50", "malloc.malloc.ns_p50", "vm.access.ns_p50", "cache.accesses", "bench.self_s"} {
		if v := res.Metrics[name]; v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", name, v)
		}
	}
	for _, layer := range cpuLayers {
		if _, ok := res.Metrics["cpu_share."+layer]; !ok {
			t.Errorf("missing cpu_share.%s", layer)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics, with the units, that the repository's BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		got := measure(handoff(6), 1, 0, c.traced, nil).result(c.traced).Metrics
		if len(got) != len(c.want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", c.traced, len(got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", c.traced, w.Name, m, w.Unit)
			}
		}
	}
}
