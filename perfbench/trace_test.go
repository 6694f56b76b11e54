package main

import "testing"

// TestSelfTimeInterleavedThreads replays a span list in which two simulated
// threads, A (tid 0) and B (tid 1), interleave under the host side's sim.run
// span, and checks the self time every span keeps.
func TestSelfTimeInterleavedThreads(t *testing.T) {
	const a, b = 0, 1
	tr := newTracer()
	tr.reset(0)
	events := []struct {
		tid, name int // name < 0 closes the thread's innermost span
		at        int64
	}{
		{hostTID, spanRun, 0},
		{b, spanYield, 2},  // B yields to A: [2,5] is that handoff
		{a, spanMalloc, 5}, // A runs: [5,9] inside Malloc
		{a, -1, 9},
		{a, spanYield, 10}, // [9,10] is A's own code: benchmark time
		{b, -1, 14},        // B resumes: [10,14] is A's handoff to B
		{b, spanFree, 15},
		{b, -1, 18},
		{b, spanYield, 20},
		{a, -1, 23}, // A resumes: [20,23] is B's handoff to A
		{b, -1, 24}, // [23,24] ran A's code between calls
		{hostTID, -1, 25},
	}
	for _, e := range events {
		if e.name < 0 {
			tr.closeAt(e.tid, e.at)
		} else {
			tr.openAt(e.tid, e.name, e.at)
		}
	}
	want := map[int]struct{ count, dur, self int64 }{
		spanRun:    {1, 25, 8},
		spanYield:  {3, 12 + 13 + 4, 3 + 4 + 3},
		spanMalloc: {1, 4, 4},
		spanFree:   {1, 3, 3},
	}
	var selfSum int64
	for name, w := range want {
		st := tr.stats[name]
		if st.count != w.count || st.totalDur != w.dur || st.totalSelf != w.self {
			t.Errorf("%s: count %d dur %d self %d, want %d %d %d",
				spanNames[name], st.count, st.totalDur, st.totalSelf, w.count, w.dur, w.self)
		}
		selfSum += st.totalSelf
	}
	if selfSum != 25 {
		t.Errorf("self times sum to %d, want the 25 ns the timeline lasted", selfSum)
	}
	// Yield self times are {3, 4, 3}: the median rank 1.5 falls in the
	// two 3s, which spread over [2.5, 3.5).
	if got := tr.selfQuantile(spanYield, 0.5); got != 3.25 {
		t.Errorf("yield self p50 = %v, want 3.25", got)
	}
	if got := tr.selfQuantile(spanSpawn, 0.5); got != 0 {
		t.Errorf("p50 without samples = %v, want 0", got)
	}
}

func TestReservoirKeepsBoundedSample(t *testing.T) {
	tr := newTracer()
	for i := int64(0); i < 3*reservoirSize; i++ {
		tr.openAt(0, spanAccess, 2*i)
		tr.closeAt(0, 2*i+1)
	}
	st := tr.stats[spanAccess]
	if st.count != 3*reservoirSize || len(st.samples) != reservoirSize {
		t.Fatalf("count %d, samples %d", st.count, len(st.samples))
	}
	if len(tr.window) != windowSize {
		t.Fatalf("window holds %d spans, want %d", len(tr.window), windowSize)
	}
}
