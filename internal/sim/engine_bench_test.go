package sim

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// The event loop is the hottest path in the repository: every Delay of
// every simulated process passes through it. These benchmarks lock in the
// timer-wheel + free-list implementation: ns/event and (above all)
// allocs/event must stay flat. Run with -benchmem.

// BenchmarkEventLoop measures raw schedule+dispatch throughput: a single
// self-rescheduling event chain, the pure event-loop cost with no process
// switches.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.After(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(1, step)
	e.Run()
	if n < b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// benchEngineChurn drives the engine with `width` events in flight
// at all times — the pending-event population of a machine with that many
// CPUs (each CPU model keeps roughly one timer outstanding). Delays are
// drawn up to 5000 cycles, the scale of the simulated kernel's IPI and
// cacheline costs, so the wheel's level-0 fast path and its cascades are
// both on the measured path.
func benchEngineChurn(b *testing.B, width int) {
	e := NewEngine(1)
	r := NewRand(7)
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.After(r.Uint64n(5000)+1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width; i++ {
		e.After(r.Uint64n(5000)+1, step)
	}
	e.Run()
}

// BenchmarkEngineChurn is the scale-out grid bench.sh records: the
// engine at 56-, 256- and 512-CPU event populations. ns/event must stay
// flat as the population grows (the wheel's point) and allocs/event must
// stay zero (the free list's point).
func BenchmarkEngineChurn(b *testing.B) {
	for _, width := range []int{56, 256, 512} {
		b.Run(fmt.Sprintf("cpus=%d", width), func(b *testing.B) {
			benchEngineChurn(b, width)
		})
	}
}

// TestEngineChurnScalesFlat is the regression guard behind the tentpole's
// performance claim: growing the event population from a 56-CPU machine
// to a 512-CPU machine must not blow up per-event cost (within 3x covers
// cache effects while catching any O(log n) -> O(n) or worse regression),
// and the warm hot path must not allocate. Timing is damped by taking the
// best of several attempts before failing.
func TestEngineChurnScalesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking is slow; run without -short")
	}
	measure := func(width int) (nsPerOp float64, allocsPerOp int64) {
		r := testing.Benchmark(func(b *testing.B) { benchEngineChurn(b, width) })
		return float64(r.NsPerOp()), r.AllocsPerOp()
	}
	var last string
	for attempt := 0; attempt < 4; attempt++ {
		ns56, _ := measure(56)
		ns512, allocs := measure(512)
		if allocs != 0 {
			t.Fatalf("512-CPU churn allocates %d objects/event, want 0", allocs)
		}
		if ns512 <= 3*ns56 {
			return
		}
		last = fmt.Sprintf("ns/event at 512 CPUs = %.1f, more than 3x the %.1f at 56", ns512, ns56)
	}
	t.Fatal(last)
}

// TestEngineSlabAllocatesOnlyChunks pins what the event slab makes exact:
// a fresh engine running the 512-wide churn of benchEngineChurn from
// cycle 0 allocates nothing but its slab's chunks, one per 256 events it
// ever holds at once (slots and the dispatch batch are lists linked
// through the events), and the engine itself stays under 20 KiB.
func TestEngineSlabAllocatesOnlyChunks(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size >= 20<<10 {
		t.Fatalf("sizeof(Engine) = %d bytes, want under 20 KiB", size)
	}
	const width, events = 512, 100_000
	churn := func() (allocs uint64, peak int) {
		e := NewEngine(1)
		r := NewRand(7)
		n := 0
		var step func()
		schedule := func() {
			e.After(r.Uint64n(5000)+1, step)
			peak = max(peak, e.Pending())
		}
		step = func() {
			if n < events {
				n++
				schedule()
			}
		}
		var before, done runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < width; i++ {
			schedule()
		}
		e.Run()
		runtime.ReadMemStats(&done)
		if n != events {
			t.Fatalf("ran %d events, want %d", n, events)
		}
		return done.Mallocs - before.Mallocs, peak
	}
	// Mallocs counts the whole process, so now and then a runtime
	// allocation on another goroutine (the scavenger growing its timer
	// heap, say) lands in the window. The engine's own count is the same
	// on every run, so the best of three runs is exact.
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		allocs, peak := churn()
		chunks := uint64(peak+slabChunk-1) / slabChunk
		if allocs <= chunks {
			return
		}
		last = fmt.Sprintf("%d events with at most %d live allocated %d objects, want at most %d slab chunks",
			events, peak, allocs, chunks)
	}
	t.Fatal(last)
}

// BenchmarkProcDelay measures an elided Delay: one process on an empty
// queue, so every Delay finds nothing due before now+d and advances the
// clock with no event and no switch (see the package doc). It must stay
// at 0 allocs/op. It times that fast path, not a switch;
// BenchmarkProcDelaySwitch measures the switch.
func BenchmarkProcDelay(b *testing.B) {
	e := NewEngine(1)
	e.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
	if e.seq != 1 {
		b.Fatalf("%d events scheduled besides the spawn, want every Delay elided", e.seq-1)
	}
}

// BenchmarkProcDelaySwitch measures one switching Delay round trip: event
// scheduling plus the two coroutine switches of a cooperative block (the
// process yields to the engine, the engine's next() resumes it). Two
// processes run in lockstep, so every Delay finds the other's resume
// queued at or before now+d (a tie, for the second of each pair) and must
// switch. It must stay at 0 allocs/op.
func BenchmarkProcDelaySwitch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) {
			for n < b.N {
				n++
				p.Delay(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
	if events := e.seq - 2; events != uint64(b.N) {
		b.Fatalf("%d resume events for %d Delays, want every Delay to switch", events, b.N)
	}
}

// BenchmarkDelayEachStep measures one engine-side DelayEach step: two
// procs in lockstep, as in BenchmarkProcDelaySwitch, each in one
// DelayEach(b.N/2, 1, step), so the other's event is always due and
// every step's Delay would switch. The engine runs each step in the
// Delay's event and resumes each proc once, after its last step. It is
// the engine-side replacement for a flush loop's switch per page and must
// stay at 0 allocs/op.
func BenchmarkDelayEachStep(b *testing.B) {
	e := NewEngine(1)
	steps := 0
	step := func(int) { steps++ }
	for _, name := range []string{"a", "b"} {
		e.Go(name, func(p *Proc) { p.DelayEach(b.N/2, 1, step) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
	if want := b.N / 2 * 2; steps != want {
		b.Fatalf("%d steps, want %d", steps, want)
	}
	if events := e.seq - 2; events != uint64(steps) {
		b.Fatalf("%d step events for %d steps, want every step's Delay in the engine", events, steps)
	}
}

// BenchmarkCondWaitPoll measures one quiet re-arm: a proc parked in a
// 500-cycle WaitPoll whose quiet check holds at every timeout, so the
// expiry callback re-arms the wait itself and the proc is never resumed.
// It is the engine-side replacement for a spinning proc's switch per poll
// (BenchmarkProcDelaySwitch) and must stay at 0 allocs/op.
func BenchmarkCondWaitPoll(b *testing.B) {
	e := NewEngine(1)
	c := e.NewCond()
	n := 0
	quiet := func(bool) bool {
		n++
		return n < b.N
	}
	e.Go("poller", func(p *Proc) {
		c.WaitPoll(p, 500, 500, quiet)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
	if n != b.N {
		b.Fatalf("%d quiet checks for %d polls", n, b.N)
	}
}

// BenchmarkCondQuietWake measures one quiet wake: 64 procs parked in
// 1000-cycle WaitPolls on one cond, which another proc broadcasts every
// 100 cycles, so each wake's callback runs the woken proc's check, finds
// it holding and re-arms the wait without resuming the proc. It is the
// engine-side replacement for the switch a semaphore waiter pays on every
// release broadcast that leaves the semaphore taken, and must stay at 0
// allocs/op.
func BenchmarkCondQuietWake(b *testing.B) {
	const pollers = 64
	e := NewEngine(1)
	c := e.NewCond()
	wakes, timeouts := 0, 0
	quiet := func(signaled bool) bool {
		if !signaled {
			timeouts++
		}
		wakes++
		return wakes < b.N
	}
	for range pollers {
		e.Go("poller", func(p *Proc) {
			c.WaitPoll(p, 1000, 1000, quiet)
		})
	}
	e.Go("releaser", func(p *Proc) {
		for wakes < b.N {
			p.Delay(100)
			c.Broadcast()
		}
	})
	e.RunUntil(0) // park every poller
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
	if wakes < b.N || timeouts > 0 {
		b.Fatalf("%d quiet checks (%d at a timeout) for %d wakes", wakes, timeouts, b.N)
	}
}

// BenchmarkProcPingPong measures two processes alternating via a Cond —
// the signal/wakeup pattern the simulated kernel's CPU loops use. Like
// BenchmarkProcDelay it must stay at 0 allocs/op.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine(1)
	c := e.NewCond()
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Delay(1)
		}
		c.Broadcast()
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	e.Shutdown()
}

// TestDelayIsAllocationFree locks in the free-list win on both Delay
// paths: once the engine is warm, neither an elided Delay (one process,
// empty queue) nor a switching one (two processes in lockstep, as in
// BenchmarkProcDelaySwitch) performs a heap allocation — the pre-bound
// resume closure and recycled Event cover the switch. The threshold
// tolerates incidental runtime allocations but would catch any regression
// back to one allocation per Delay (10000 would fail loudly).
func TestDelayIsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
	}{{"elided", 1}, {"switching", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			const delays = 11_000
			e := NewEngine(1)
			total := 0
			for i := 0; i < tc.procs; i++ {
				e.Go("worker", func(p *Proc) {
					for total < delays {
						total++
						p.Delay(1)
					}
				})
			}
			// Warm up: the first window grows the event slab.
			e.RunUntil(1000 / Time(tc.procs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.RunUntil(delays / Time(tc.procs))
			runtime.ReadMemStats(&after)
			e.Run()
			e.Shutdown()
			if total != delays {
				t.Fatalf("ran %d delays, want %d", total, delays)
			}
			// Elided Delays schedule nothing; only a Delay that a window's
			// horizon stops switches.
			events := e.seq - uint64(tc.procs)
			if tc.procs == 1 && events > 2 || tc.procs == 2 && events != delays {
				t.Fatalf("%s: %d resume events for %d delays", tc.name, events, delays)
			}
			allocs := after.Mallocs - before.Mallocs
			if allocs > 500 {
				t.Fatalf("10000 warm Delay round trips allocated %d objects, want ~0", allocs)
			}
		})
	}
}

// TestDelayEachIsAllocationFree: a warm DelayEach allocates nothing,
// whether its steps run inline (one proc: every Delay elides) or in the
// engine (two procs in lockstep: every Delay would switch). The loop's
// state lives in the Proc and its callback is bound on first use, so
// only the first engine-side loop of a proc allocates.
func TestDelayEachIsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
	}{{"inline", 1}, {"engine", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			const loops, n = 1100, 10
			e := NewEngine(1)
			steps, engineSteps := 0, 0
			for i := 0; i < tc.procs; i++ {
				e.Go("worker", func(p *Proc) {
					step := func(int) {
						steps++
						if p.each.step != nil {
							engineSteps++
						}
					}
					for k := 0; k < loops; k++ {
						p.DelayEach(n, 1, step)
					}
				})
			}
			// Warm up: the first window grows the event slab and binds
			// each proc's callback.
			e.RunUntil(1000)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.RunUntil(loops * n)
			runtime.ReadMemStats(&after)
			e.Run()
			e.Shutdown()
			if want := tc.procs * loops * n; steps != want {
				t.Fatalf("ran %d steps, want %d", steps, want)
			}
			// A window's horizon holds back one Delay, and the rest of
			// its loop then runs in the engine.
			if tc.procs == 1 && engineSteps > 2*n || tc.procs == 2 && engineSteps != steps {
				t.Fatalf("%d of %d steps ran in the engine", engineSteps, steps)
			}
			if allocs := after.Mallocs - before.Mallocs; allocs > 10 {
				t.Fatalf("%d warm DelayEach steps allocated %d objects, want ~0", loops*n-1000, allocs)
			}
		})
	}
}

// TestCondWaitIsAllocationFree extends TestDelayIsAllocationFree to every
// Cond blocking path: Wait woken by Signal, WaitTimeout both signaled and
// timed out, Wait woken by Broadcast, a WaitPoll re-armed twice at its
// timeout by its quiet check and then resumed, and a WaitPoll whose check
// re-arms a Broadcast and then declines a Signal. Waiter state lives in
// the Proc, the timeout and wake callbacks are bound once per process and
// the FIFO keeps its backing array, so warm rounds allocate nothing. A
// per-wait waiter and timeout closure would cost about 9000 objects here,
// far above the gate.
func TestCondWaitIsAllocationFree(t *testing.T) {
	const rounds = 7700
	e := NewEngine(1)
	c := e.NewCond()
	var signaled, timedOut, woken, polled, checks, quietWoken, wakeChecks int
	quiet := func(bool) bool {
		checks++
		return checks%3 != 0
	}
	// Holds at the Broadcast at +9, fails at the Signal at +10.
	wakeQuiet := func(signaled bool) bool {
		wakeChecks++
		return signaled && wakeChecks%2 == 1
	}
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c.Wait(p)                // Signal at +1
			if c.WaitTimeout(p, 5) { // Signal at +2
				signaled++
			}
			if !c.WaitTimeout(p, 2) { // expires at +4
				timedOut++
			}
			c.Wait(p) // Broadcast at +5
			woken++
			// Re-armed at +6 and +7, resumed at +8.
			if c.WaitPoll(p, 1, 1, quiet) == 0 && p.Now()%10 == 8 {
				polled++
			}
			// Re-armed at +9 until +11, resumed at +10.
			if c.WaitPoll(p, 2, 2, wakeQuiet) == 1 && p.Now()%10 == 0 {
				quietWoken++
			}
		}
	})
	e.Go("driver", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Delay(1)
			c.Signal()
			p.Delay(1)
			c.Signal()
			p.Delay(3)
			c.Broadcast()
			p.Delay(4)
			c.Broadcast()
			p.Delay(1)
			c.Signal()
		}
	})
	// Warm up: the first rounds grow the event slab and the FIFO. The
	// wheel's slots only link the slab's events, so filing into a slot no
	// event used before costs nothing.
	e.RunUntil(3000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(13_000)
	runtime.ReadMemStats(&after)
	e.Run()
	e.Shutdown()
	if signaled != rounds || timedOut != rounds || woken != rounds || polled != rounds || quietWoken != rounds ||
		checks != 3*rounds || wakeChecks != 2*rounds {
		t.Fatalf("signaled/timed out/woken/polled/quiet-woken = %d/%d/%d/%d/%d after %d+%d quiet checks, want %d each and %d+%d checks",
			signaled, timedOut, woken, polled, quietWoken, checks, wakeChecks, rounds, 3*rounds, 2*rounds)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 10 {
		t.Fatalf("1000 warm Cond rounds allocated %d objects, want ~0", allocs)
	}
}
