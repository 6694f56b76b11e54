// Command perfbench measures how much host time the simulator takes per
// simulated allocator call, end to end and split by layer. It runs one
// workload (chains, handoff or mapchurn; see WORKLOADS.md) in this process:
// each repetition builds a fresh world from the seed (set-up phase: world,
// instance, prefill; the simulated caches start empty) and then runs the
// workload's fixed-length timed phase. Repetitions continue until the
// measuring time is used; host times are read from each world's fastest
// repetition.
//
//	go run . --workload chains --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced repetitions, which take a CPU profile, with traced
// ones, which record a span around every call, and reports the per-layer
// split. The last line of standard output is one JSON object with the
// verdict and the metrics; a full report goes to .bench_build/perfbench.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mtmalloc/internal/vm"
)

// outDir holds the run reports and span windows, relative to the working
// directory.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: chains, handoff or mapchurn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer split instead of the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	wl, err := newWorkload(name)
	if err != nil {
		return err
	}
	// The engine runs one simulated thread at a time; a second P would
	// only run the collector beside it and bounce wakeups between CPUs,
	// which made the figures noisier.
	runtime.GOMAXPROCS(1)
	prov := provenance(seed)
	for _, k := range sortedKeys(prov) {
		fmt.Printf("provenance %s = %s\n", k, prov[k])
	}
	fmt.Printf("workload %s: %s\n", wl.name, wl.why)
	fmt.Println("closed loop; the simulated caches start empty in every repetition's set-up phase")

	m := measure(wl, seed, seconds, traced, nil)
	res := m.result(traced)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %s = %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if traced {
		fmt.Println(m.layerVerdict(wl))
	}
	fmt.Printf("sim_digest = %s\n", m.digest())
	fmt.Printf("failed_frac = %.6g (%d of %d simulated ops)\n", m.failedFrac(), res.Failed, res.Attempted)
	for _, e := range m.errs {
		fmt.Println("failure:", e)
	}
	if err := m.writeReport(name, seed, traced, prov, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measurement collects the repetitions of one run.
type measurement struct {
	plain, traced []repResult // untraced and traced repetitions
	slotDigest    [slots]string
	errs          []string
	cpu           map[string]int64 // CPU profile samples per layer, untraced repetitions
	tr            *tracer
}

// slots is how many worlds a run cycles through. Repetition i runs slot
// i%slots (untraced run) or (i/2)%slots (traced run, which alternates an
// untraced and a traced repetition of each slot), so the figures weigh the
// slots evenly and no single world's quirks, such as how much memory its
// allocator happens to touch, decide a run's figures.
const slots = 4

// slotSeed is the world seed of one slot of a run with the given seed.
func slotSeed(seed uint64, slot int) uint64 { return seed*slots + uint64(slot) }

// measure repeats the workload for the given host seconds, in whole cycles
// over the slots and at least two repetitions of every slot. A traced run
// alternates untraced repetitions, which run under the CPU profiler, with
// traced ones. Every repetition of a slot must reach the same sim_digest.
func measure(wl *workload, seed uint64, seconds float64, traced bool, faults *vm.InjectPolicy) *measurement {
	m := &measurement{cpu: map[string]int64{}}
	if traced {
		m.tr = newTracer()
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		slot := i % slots
		withTrace := traced && i%2 == 1
		if traced {
			slot = i / 2 % slots
		}
		// Collect the previous repetition's world now, outside any timing,
		// so each repetition starts from the same Go heap.
		runtime.GC()
		var prof bytes.Buffer
		profiling := traced && !withTrace && pprof.StartCPUProfile(&prof) == nil
		var tr *tracer
		if withTrace {
			tr = m.tr
		}
		r := runRep(wl, slotSeed(seed, slot), tr, faults)
		r.slot = slot
		if profiling {
			pprof.StopCPUProfile()
			if err := cpuSamples(prof.Bytes(), m.cpu); err != nil {
				m.errs = append(m.errs, err.Error())
			}
		}
		if withTrace {
			m.traced = append(m.traced, r)
		} else {
			m.plain = append(m.plain, r)
		}
		if r.err != nil {
			m.errs = append(m.errs, r.err.Error())
		}
		if m.slotDigest[slot] == "" {
			m.slotDigest[slot] = r.digest
		} else if r.digest != m.slotDigest[slot] {
			m.errs = append(m.errs, fmt.Sprintf("repetition %d: sim_digest %s differs from %s, slot %d's first", i, r.digest, m.slotDigest[slot], slot))
		}
		cycle := slots
		if traced {
			cycle = 2 * slots
		}
		if done := i + 1; done >= 2*slots && done%cycle == 0 && !time.Now().Before(deadline) {
			return m
		}
	}
}

// digest combines the slots' digests into the run's sim_digest.
func (m *measurement) digest() string {
	h := sha256.New()
	for _, d := range m.slotDigest {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// layerVerdict compares the layer with the most CPU profile samples with
// the workload's predicted dominant layers.
func (m *measurement) layerVerdict(wl *workload) string {
	var total, predicted, best int64
	top := ""
	for _, l := range cpuLayers {
		n := m.cpu[l]
		total += n
		if slices.Contains(wl.predicted, l) {
			predicted += n
		}
		if n > best {
			top, best = l, n
		}
	}
	if total == 0 {
		return "layer split: no CPU profile samples"
	}
	verdict := "confirmed"
	if !slices.Contains(wl.predicted, top) {
		verdict = "mismatch"
	}
	return fmt.Sprintf("layer split: predicted %s holds %.1f%% of %d CPU samples; measured top layer %s holds %.1f%%: %s",
		strings.Join(wl.predicted, "+"), 100*float64(predicted)/float64(total), total, top, 100*float64(best)/float64(total), verdict)
}

func (m *measurement) all() []repResult {
	return append(append([]repResult(nil), m.plain...), m.traced...)
}

func (m *measurement) attempted() uint64 {
	var n uint64
	for _, r := range m.all() {
		n += r.ops
	}
	if n == 0 {
		n = 1 // a run that completed no op still attempted one
	}
	return n
}

// failed counts every op of the run once any check failed: a run whose
// correctness is in doubt vouches for none of its ops.
func (m *measurement) failed() uint64 {
	if len(m.errs) > 0 {
		return m.attempted()
	}
	return 0
}

func (m *measurement) failedFrac() float64 { return float64(m.failed()) / float64(m.attempted()) }

func (m *measurement) result(traced bool) result {
	res := result{Correct: len(m.errs) == 0, Attempted: m.attempted(), Failed: m.failed(), Metrics: map[string]metric{}}
	if traced {
		m.perLayer(res.Metrics)
	} else {
		m.endToEnd(res.Metrics)
	}
	return res
}

func (m *measurement) endToEnd(out map[string]metric) {
	out["sim_ops_per_host_s"] = metric{opsPerSecond(m.plain), "1/s"}
	var setup float64
	best := fastestPerSlot(m.plain, func(r repResult) float64 { return r.setupS })
	for _, r := range best {
		setup += r.setupS
	}
	out["setup_s"] = metric{setup / float64(max(len(best), 1)), "s"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	// Bytes per op is a ratio of sums over whole cycles, which weighs the
	// worlds evenly where a median would jump between worlds that allocate
	// differently.
	var allocated, ops uint64
	for _, r := range m.plain {
		allocated += r.allocBytes
		ops += r.ops
	}
	out["host_alloc_bytes_per_op"] = metric{float64(allocated) / float64(max(ops, 1)), "B"}
}

func (m *measurement) perLayer(out map[string]metric) {
	// The simulated counters are the mean over the slots' worlds; every
	// repetition of a slot has the same ones.
	if len(m.plain) >= slots {
		for k, v := range m.plain[0].layers {
			for _, r := range m.plain[1:slots] {
				v.Value += r.layers[k].Value
			}
			out[k] = metric{v.Value / slots, v.Unit}
		}
	}
	tr := m.tr
	for _, q := range []struct {
		metric string
		span   int
	}{
		{"vm.access.ns", spanAccess},
		{"malloc.malloc.ns", spanMalloc},
		{"malloc.free.ns", spanFree},
		{"sim.yield.self_ns", spanYield},
	} {
		out[q.metric+"_p50"] = metric{tr.selfQuantile(q.span, 0.50), "ns"}
		out[q.metric+"_p99"] = metric{tr.selfQuantile(q.span, 0.99), "ns"}
	}
	out["bench.self_s"] = metric{float64(tr.stats[spanRun].totalSelf) / 1e9 / float64(max(len(m.traced), 1)), "s"}

	var samples int64
	for _, n := range m.cpu {
		samples += n
	}
	for _, layer := range cpuLayers {
		share := 0.0
		if samples > 0 {
			share = 100 * float64(m.cpu[layer]) / float64(samples)
		}
		out["cpu_share."+layer] = metric{share, "%"}
	}
	out["runtime.gc_cycles"] = metric{median(m.plain, func(r repResult) float64 { return float64(r.gcCycles) }), "count"}
	out["runtime.gc_pause_s"] = metric{median(m.plain, func(r repResult) float64 { return r.gcPauseS }), "s"}

	plain, withTrace := opsPerSecond(m.plain), opsPerSecond(m.traced)
	out["trace.sim_ops_per_host_s"] = metric{withTrace, "1/s"}
	overhead := 0.0
	if withTrace > 0 {
		overhead = 100 * (plain/withTrace - 1)
	}
	out["trace.overhead_pct"] = metric{overhead, "%"}
	out["failed_frac"] = metric{m.failedFrac(), "frac"}
}

// opsPerSecond is simulated ops per host second of the timed phase, over
// the fastest repetition of each slot.
func opsPerSecond(rs []repResult) float64 {
	var ops uint64
	var secs float64
	for _, r := range fastestPerSlot(rs, func(r repResult) float64 { return r.timedS }) {
		ops += r.ops
		secs += r.timedS
	}
	if secs <= 0 {
		return 0
	}
	return float64(ops) / secs
}

// fastestPerSlot returns, for each slot, the repetition with the least host
// time by f. The repetitions of a slot run the same simulation bit for bit
// (their digests agree), so their host times differ only by the load other
// processes put on the host, which only ever adds time: the fastest
// repetition is the least disturbed reading of the simulator's own cost.
func fastestPerSlot(rs []repResult, f func(repResult) float64) []repResult {
	var best [slots]*repResult
	for i := range rs {
		if b := best[rs[i].slot]; b == nil || f(rs[i]) < f(*b) {
			best[rs[i].slot] = &rs[i]
		}
	}
	var out []repResult
	for _, b := range best {
		if b != nil {
			out = append(out, *b)
		}
	}
	return out
}

func median(rs []repResult, f func(repResult) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMB returns the process's peak resident memory (VmHWM) in MiB, or
// the Go runtime's total reservation where /proc is not available.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// provenance names what produced the numbers: the command, seed, source
// revision, toolchain and host parallelism.
func provenance(seed uint64) map[string]string {
	return map[string]string{
		"command":    strings.Join(os.Args, " "),
		"seed":       strconv.FormatUint(seed, 10),
		"revision":   gitRevision(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
	}
}

// gitRevision returns `git rev-parse HEAD` of the working directory, or
// "unknown" outside a git checkout.
func gitRevision() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, which identifies the code measured when no git revision is
// at hand.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// writeReport writes the run's full report (provenance, verdict, metrics,
// digest and per-repetition figures) and, for a traced run, its span
// window.
func (m *measurement) writeReport(name string, seed uint64, traced bool, prov map[string]string, res result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mode := 0
	if traced {
		mode = 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, mode))
	type repOut struct {
		Traced  bool    `json:"traced"`
		SetupS  float64 `json:"setup_s"`
		TimedS  float64 `json:"timed_s"`
		Ops     uint64  `json:"ops"`
		Cycles  int64   `json:"sim_cycles"`
		Digest  string  `json:"sim_digest"`
		GoAlloc uint64  `json:"go_alloc_bytes"`
	}
	var reps []repOut
	for i, r := range m.all() {
		reps = append(reps, repOut{i >= len(m.plain), r.setupS, r.timedS, r.ops, int64(r.cycles), r.digest, r.allocBytes})
	}
	b, err := json.MarshalIndent(map[string]any{
		"provenance":  prov,
		"result":      res,
		"sim_digest":  m.digest(),
		"failed_frac": m.failedFrac(),
		"failures":    m.errs,
		"repetitions": reps,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if m.tr != nil {
		return m.tr.writeWindow(base + ".spans.json")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
