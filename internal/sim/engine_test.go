package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scheduleTrace runs a small mixed body that exercises every scheduling
// entry point (Yield, MaybeYield batches, Sleep, Join on a running and on a
// finished thread, Spawn past the CPU count, a pinned thread, a contended
// mutex under quantum preemption) and returns one "id@cpu:now" entry per
// resume.
func scheduleTrace(t *testing.T) (string, *Machine) {
	t.Helper()
	cfg := testConfig(2)
	cfg.Costs = DefaultCosts()
	cfg.Costs.ThreadSpawn = 1000
	cfg.Costs.ContextSwitch = 500
	cfg.BatchOps = 4
	cfg.Quantum = 5000
	m := NewMachine(cfg)
	mu := m.NewMutex("heap")
	var trace []string
	rec := func(th *Thread) {
		trace = append(trace, fmt.Sprintf("%d@%d:%d", th.ID(), th.CPU(), th.Now()))
	}
	worker := func(w *Thread) {
		for i := 0; i < 24; i++ {
			w.Lock(mu)
			w.Charge(300)
			w.Unlock(mu)
			w.Charge(100)
			w.MaybeYield()
			if w.opsSinceYield == 0 {
				rec(w)
			}
		}
	}
	err := m.Run(func(main *Thread) {
		rec(main)
		short := main.Spawn("short", func(s *Thread) { s.Charge(50) })
		var workers []*Thread
		for i := 0; i < 3; i++ {
			workers = append(workers, main.Spawn("worker", worker))
		}
		pinned := main.Spawn("pinned", func(p *Thread) {
			p.Pin(1)
			for i := 0; i < 4; i++ {
				p.Charge(2000)
				p.Yield()
				rec(p)
			}
		})
		sleeper := main.Spawn("sleeper", func(s *Thread) {
			for i := 0; i < 3; i++ {
				s.Charge(500)
				s.Sleep(7000)
				rec(s)
			}
		})
		main.Charge(3000)
		main.Yield()
		rec(main)
		// Spawned once the workers hold the mutex, so the wakeup draw has
		// a victim.
		joiner := main.Spawn("joiner", func(j *Thread) {
			j.Join(workers[0])
			rec(j)
		})
		if short.state != stateDone {
			t.Error("short has not finished before its Join")
		}
		main.Join(short)
		rec(main)
		for _, w := range append(workers, pinned, sleeper, joiner) {
			main.Join(w)
			rec(main)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(trace, " "), m
}

// TestScheduleGolden pins the scheduler's pick and dispatch: the resume
// sequence and the scheduler counters were recorded when the engine
// goroutine made every pick, so a handoff that changes either shows here.
func TestScheduleGolden(t *testing.T) {
	got, m := scheduleTrace(t)
	const want = `
		0@0:500 2@0:10000 3@0:12196 0@1:13877 0@1:16877 4@0:14392 2@0:16588
		5@1:17377 3@1:19877 4@0:20784 6@1:25268 5@1:26268 2@0:28752 3@1:28768
		4@0:33348 5@1:37332 6@1:39832 2@1:40832 3@0:41316 5@1:45428 4@1:45928
		2@0:49412 6@1:53396 3@1:53896 4@0:57380 2@1:61364 3@1:61864 0@1:64364
		0@1:66364 7@0:67348 4@1:66864 0@1:69364 0@1:71364 0@1:73364 0@1:75364`
	if w := strings.Join(strings.Fields(want), " "); got != w {
		t.Errorf("schedule changed:\n got %s\nwant %s", got, w)
	}
	if m.ContextSwitches != 37 || m.PreemptDraws != 15 || m.PreemptMidCS != 4 {
		t.Errorf("ContextSwitches, PreemptDraws, PreemptMidCS = %d, %d, %d; want 37, 15, 4",
			m.ContextSwitches, m.PreemptDraws, m.PreemptMidCS)
	}
}

func TestPanicBeforeDeadlockKeepsFirstError(t *testing.T) {
	m := NewMachine(testConfig(2))
	err := m.Run(func(main *Thread) {
		w2 := main.Spawn("w2", func(w *Thread) { w.Join(main) })
		main.Spawn("bad", func(b *Thread) {
			b.Charge(1000000) // panic once main and w2 are both blocked
			panic("first")
		})
		main.Join(w2)
	})
	if err == nil || !strings.Contains(err.Error(), "first") {
		t.Fatalf("err = %v, want the body panic", err)
	}
}

// waitGoroutines polls until the goroutine count drops back to want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d", n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTeardownLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name, want string
		body       func(*Thread)
	}{
		{"deadlock", "deadlock", func(main *Thread) {
			w := main.Spawn("w", func(w *Thread) { w.Join(main) })
			main.Spawn("finisher", func(f *Thread) {
				for i := 0; i < 10; i++ {
					f.Charge(100)
					f.Yield()
				}
			})
			main.Join(w)
		}},
		{"panic", "boom", func(main *Thread) {
			// These never return on their own: only the abort ends them,
			// while they are parked mid-Yield or mid-Sleep.
			for i := 0; i < 3; i++ {
				main.Spawn("yielder", func(y *Thread) {
					for {
						y.Charge(100)
						y.Yield()
					}
				})
				main.Spawn("sleeper", func(s *Thread) {
					for {
						s.Sleep(1000)
					}
				})
			}
			bad := main.Spawn("bad", func(b *Thread) {
				b.Charge(50000)
				panic("boom")
			})
			main.Join(bad)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := NewMachine(testConfig(2))
			done := make(chan error, 1)
			go func() { done <- m.Run(c.body) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return")
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			waitGoroutines(t, before)
		})
	}
}

// BenchmarkYield reports the host cost of one Yield (ns/op). In "self" a
// lone thread always picks itself again; in "ring16" sixteen threads on
// sixteen CPUs take turns, so every Yield resumes another thread.
func BenchmarkYield(b *testing.B) {
	b.Run("self", func(b *testing.B) {
		m := NewMachine(testConfig(1))
		b.ResetTimer()
		err := m.Run(func(th *Thread) {
			for i := 0; i < b.N; i++ {
				th.Yield()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("ring16", func(b *testing.B) {
		const threads = 16
		m := NewMachine(testConfig(threads))
		b.ResetTimer()
		err := m.Run(func(main *Thread) {
			var ring []*Thread
			for i := 0; i < threads; i++ {
				n := b.N / threads
				if i < b.N%threads {
					n++
				}
				ring = append(ring, main.Spawn("ring", func(w *Thread) {
					for j := 0; j < n; j++ {
						// Longer than the spread of the start times
						// (16 spawns of 60000 cycles plus jitter), so
						// each Yield moves the caller behind every
						// other thread.
						w.Charge(1 << 20)
						w.Yield()
					}
				}))
			}
			for _, w := range ring {
				main.Join(w)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}
