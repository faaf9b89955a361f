package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestShutdownDrainsBlockedProcs is the leak-check contract: after a run
// leaves processes parked (a Cond nobody will signal — the shape of every
// idle simulated CPU loop), Shutdown unwinds them all and LiveProcs drops
// to zero.
func TestShutdownDrainsBlockedProcs(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	for i := 0; i < 8; i++ {
		e.Go("parked", func(p *Proc) {
			c.Wait(p) // no signal ever comes
			t.Error("parked proc body continued past Wait during shutdown")
		})
	}
	e.Go("worker", func(p *Proc) { p.Delay(10) })
	e.Run()
	if e.LiveProcs() != 9-1 { // worker finished, 8 parked
		t.Fatalf("LiveProcs before Shutdown = %d, want 8", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestShutdownAfterProcPanic covers the satellite bug: Run re-panics a
// proc's error, leaving every other proc parked; Shutdown must still drain
// them from that state.
func TestShutdownAfterProcPanic(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	for i := 0; i < 4; i++ {
		e.Go("parked", func(p *Proc) { c.Wait(p) })
	}
	e.Go("boom", func(p *Proc) {
		p.Delay(5)
		panic("kaboom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "kaboom") {
				t.Fatalf("Run recovered %v, want the proc panic", r)
			}
		}()
		e.Run()
	}()
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestShutdownNeverStartedProc: a proc spawned but never resumed (its start
// event still queued) must not run its body during shutdown.
func TestShutdownNeverStartedProc(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Go("never", func(p *Proc) { ran = true })
	// No Run: the start event is still pending.
	e.Shutdown()
	if ran {
		t.Fatal("never-started proc body ran during Shutdown")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestShutdownIdempotent: calling Shutdown twice is harmless.
func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	e.Go("parked", func(p *Proc) { c.Wait(p) })
	e.Run()
	e.Shutdown()
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

// TestShutdownUnwindsProcThatBlocksAgain: a process that blocks again
// while unwinding (here a deferred Delay) is poisoned again instead of
// re-parking, so Shutdown still leaves no live process behind.
func TestShutdownUnwindsProcThatBlocksAgain(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	unwound := false
	e.Go("stubborn", func(p *Proc) {
		defer func() { unwound = true }()
		defer p.Delay(5)
		c.Wait(p)
	})
	e.Run()
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
	if !unwound {
		t.Fatal("defers above the re-blocking Delay did not run")
	}
}

// TestShutdownReleasesGoroutines verifies the coroutines actually exit (not
// just the bookkeeping): each parked proc holds one goroutine, and all of
// them are gone the moment Shutdown returns, because a coroutine's exit is
// synchronous with its stop.
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		e := NewEngine(uint64(round + 1))
		c := e.NewCond()
		for i := 0; i < 16; i++ {
			e.Go("parked", func(p *Proc) { c.Wait(p) })
		}
		e.Run()
		parked := runtime.NumGoroutine()
		e.Shutdown()
		if exited := parked - runtime.NumGoroutine(); exited != 16 {
			t.Fatalf("round %d: %d goroutines exited in Shutdown, want the 16 parked procs", round, exited)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after 160 drained procs", before, after)
	}
}
