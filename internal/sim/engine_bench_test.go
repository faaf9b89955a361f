package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// The event loop is the hottest path in the repository: every Delay of
// every simulated process passes through it. These benchmarks lock in the
// concrete-heap + free-list implementation: ns/event and (above all)
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

// BenchmarkEventHeapChurn measures the heap under fan-out: k events in
// flight at all times, pushed at deterministic pseudo-random offsets, so
// sift-up/down actually move elements.
func BenchmarkEventHeapChurn(b *testing.B) {
	const fanout = 64
	e := NewEngine(1)
	r := NewRand(7)
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.After(r.Uint64n(1000)+1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < fanout; i++ {
		e.After(r.Uint64n(1000)+1, step)
	}
	e.Run()
}

// benchEngineChurn drives one engine kind with `width` events in flight
// at all times — the pending-event population of a machine with that many
// CPUs (each CPU model keeps roughly one timer outstanding). Delays are
// drawn up to 5000 cycles, the scale of the simulated kernel's IPI and
// cacheline costs, so the wheel's level-0 fast path and its cascades are
// both on the measured path.
func benchEngineChurn(b *testing.B, kind EngineKind, width int) {
	e := NewEngineKind(kind, 1)
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

// BenchmarkEngineChurn is the scale-out grid bench.sh records: both
// event-queue implementations at 56-, 256- and 512-CPU event populations.
// ns/event must stay flat as the population grows (the wheel's point) and
// allocs/event must stay zero (the free list's point).
func BenchmarkEngineChurn(b *testing.B) {
	for _, kind := range []EngineKind{EngineWheel, EngineHeap} {
		for _, width := range []int{56, 256, 512} {
			b.Run(fmt.Sprintf("%s/cpus=%d", kind, width), func(b *testing.B) {
				benchEngineChurn(b, kind, width)
			})
		}
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
		r := testing.Benchmark(func(b *testing.B) { benchEngineChurn(b, EngineWheel, width) })
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

// BenchmarkProcDelay measures one Delay round trip of a process: event
// scheduling plus the two coroutine switches of a cooperative block (the
// process yields to the engine, the engine's next() resumes it). It must
// stay at 0 allocs/op.
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
	e.Shutdown()
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

// TestDelayIsAllocationFree locks in the free-list win: once the engine is
// warm, a Delay round trip performs no heap allocation for its event (the
// pre-bound resume closure and recycled Event cover it). The threshold
// tolerates incidental runtime allocations but would catch any regression
// back to one-allocation-per-event (10000 would fail loudly).
func TestDelayIsAllocationFree(t *testing.T) {
	e := NewEngine(1)
	total := 0
	e.Go("worker", func(p *Proc) {
		for i := 0; i < 11_000; i++ {
			p.Delay(1)
			total++
		}
	})
	// Warm up: the first window grows the heap slice and free list.
	e.RunUntil(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(11_000)
	runtime.ReadMemStats(&after)
	e.Run()
	e.Shutdown()
	if total != 11_000 {
		t.Fatalf("ran %d delays, want 11000", total)
	}
	allocs := after.Mallocs - before.Mallocs
	if allocs > 500 {
		t.Fatalf("10000 warm Delay round trips allocated %d objects, want ~0", allocs)
	}
}

// TestCondWaitIsAllocationFree extends TestDelayIsAllocationFree to every
// Cond blocking path: Wait woken by Signal, WaitTimeout both signaled and
// timed out, and Wait woken by Broadcast. Waiter state lives in the Proc,
// the timeout callback is bound once per process and the FIFO keeps its
// backing array, so warm rounds allocate nothing. A per-wait waiter and
// timeout closure would cost about 9000 objects here, far above the gate.
func TestCondWaitIsAllocationFree(t *testing.T) {
	const rounds = 1100
	e := NewEngine(1)
	c := e.NewCond()
	var signaled, timedOut, woken int
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
			p.Delay(5)
		}
	})
	// Warm up: the first rounds grow the event queue, free list and FIFO.
	e.RunUntil(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(11_000)
	runtime.ReadMemStats(&after)
	e.Run()
	e.Shutdown()
	if signaled != rounds || timedOut != rounds || woken != rounds {
		t.Fatalf("signaled/timed out/woken = %d/%d/%d, want %d each", signaled, timedOut, woken, rounds)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 100 {
		t.Fatalf("1000 warm Cond rounds allocated %d objects, want ~0", allocs)
	}
}
