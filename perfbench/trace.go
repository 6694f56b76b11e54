package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"time"
)

// The tracer records spans the benchmark opens and closes around each call
// it makes into a layer (malloc.Malloc, vm.access, sim.yield, ...). The
// engine runs one simulated thread at a time, so a single host timeline
// serves every thread: host time between two consecutive span events belongs
// to the thread that recorded the earlier one, which is the thread running
// then, and within it to that thread's innermost open span. Host time of a
// thread that has no open span is benchmark code between calls; it goes to
// the host side's innermost span (sim.run in the timed phase). A span's self
// time is therefore its duration minus every part of it during which some
// other span, on any thread, was the running one. A sim.yield span thus
// keeps only the handoff it starts: from the Yield call until the next
// thread records its first event, while the time the other threads ran
// inside it goes to their own spans.

// hostTID is the thread id of spans the benchmark loop records (outside
// any simulated thread): bench.setup and sim.run.
const hostTID = -1

// Span names, in report order.
const (
	spanMalloc = iota
	spanFree
	spanAccess
	spanYield
	spanSpawn
	spanJoin
	spanRun
	spanSetup
	numSpans
)

var spanNames = [numSpans]string{
	"malloc.Malloc", "malloc.Free", "vm.access", "sim.yield",
	"sim.spawn", "sim.join", "sim.run", "bench.setup",
}

// reservoirSize bounds the self-time samples kept per span name for
// percentiles; windowSize bounds the raw spans kept for the trace file.
const (
	reservoirSize = 1 << 16
	windowSize    = 1 << 16
)

type frame struct {
	name  int
	start int64
	self  int64
}

// spanRec is one completed span as written to the trace file.
type spanRec struct {
	Name  string `json:"name"`
	TID   int    `json:"tid"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	Self  int64  `json:"self_ns"`
}

// nameStats accumulates per-name totals and a uniform reservoir sample of
// self times.
type nameStats struct {
	count     int64
	totalDur  int64
	totalSelf int64
	samples   []int64
}

type tracer struct {
	epoch  time.Time
	clock  func() int64
	last   int64
	cur    int // stack index of the thread that recorded the last event
	stacks [][]frame
	stats  [numSpans]nameStats
	rng    *rand.Rand

	window []spanRec
	next   int // ring position in window once full
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now(), rng: rand.New(rand.NewSource(1))}
	tr.clock = func() int64 { return int64(time.Since(tr.epoch)) }
	tr.reset(0)
	return tr
}

// reset drops every open span, as at the start of a repetition, and makes
// the host side the running thread at time now.
func (tr *tracer) reset(now int64) {
	tr.stacks = tr.stacks[:0]
	tr.cur = tr.stack(hostTID)
	tr.last = now
}

// stack returns the span stack of tid; the host side uses index 0 and
// simulated thread i index i+1.
func (tr *tracer) stack(tid int) int {
	i := tid + 1
	for len(tr.stacks) <= i {
		tr.stacks = append(tr.stacks, nil)
	}
	return i
}

// advance charges the host time since the last event to the running span
// and makes tid the running thread.
func (tr *tracer) advance(tid int, now int64) {
	d := now - tr.last
	if s := tr.stacks[tr.cur]; len(s) > 0 {
		s[len(s)-1].self += d
	} else if s := tr.stacks[0]; len(s) > 0 {
		s[len(s)-1].self += d
	}
	tr.last = now
	tr.cur = tr.stack(tid)
}

func (tr *tracer) open(tid, name int) { tr.openAt(tid, name, tr.clock()) }

func (tr *tracer) close(tid int) { tr.closeAt(tid, tr.clock()) }

func (tr *tracer) openAt(tid, name int, now int64) {
	tr.advance(tid, now)
	tr.stacks[tr.cur] = append(tr.stacks[tr.cur], frame{name: name, start: now})
}

func (tr *tracer) closeAt(tid int, now int64) {
	tr.advance(tid, now)
	s := tr.stacks[tr.cur]
	f := s[len(s)-1]
	tr.stacks[tr.cur] = s[:len(s)-1]
	tr.record(tid, f, now)
}

func (tr *tracer) record(tid int, f frame, now int64) {
	st := &tr.stats[f.name]
	st.count++
	st.totalDur += now - f.start
	st.totalSelf += f.self
	if len(st.samples) < reservoirSize {
		st.samples = append(st.samples, f.self)
	} else if j := tr.rng.Int63n(st.count); j < reservoirSize {
		st.samples[j] = f.self
	}
	rec := spanRec{Name: spanNames[f.name], TID: tid, Start: f.start, Dur: now - f.start, Self: f.self}
	if len(tr.window) < windowSize {
		tr.window = append(tr.window, rec)
	} else {
		tr.window[tr.next] = rec
		tr.next = (tr.next + 1) % windowSize
	}
}

// selfQuantile returns quantile q of the sampled self times of one span
// name in nanoseconds, 0 without samples. Nanosecond readings are integers,
// so each value v is taken to spread evenly over [v-0.5, v+0.5) and the
// quantile interpolates inside it; a median therefore moves with the counts
// around it instead of snapping to one integer.
func (tr *tracer) selfQuantile(name int, q float64) float64 {
	xs := append([]int64(nil), tr.stats[name].samples...)
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := q * float64(len(xs))
	i := int(rank)
	if i >= len(xs) {
		i = len(xs) - 1
	}
	v := xs[i]
	lo := sort.Search(len(xs), func(k int) bool { return xs[k] >= v })
	hi := sort.Search(len(xs), func(k int) bool { return xs[k] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

// writeWindow writes the most recent spans, oldest first, as a JSON array.
func (tr *tracer) writeWindow(path string) error {
	out := append(append([]spanRec(nil), tr.window[tr.next:]...), tr.window[:tr.next]...)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
