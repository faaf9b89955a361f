//go:build go1.23

// The constraint raises this file's language version to go1.23, which
// iter.Pull requires, while go.mod stays at go 1.22: bench/go.mod pins
// go 1.22, and a go 1.23 root would make its build demand a go.mod update.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine (iter.Pull) that runs
// cooperatively under an Engine. At most one Proc executes at a time; a Proc
// runs until it blocks (Delay, Cond.Wait, ...) or returns, then the engine
// resumes. Control passes by direct coroutine switch, never through the Go
// scheduler.
//
// All Proc methods must be called from the Proc's own body.
type Proc struct {
	// Name identifies the process in traces and error messages.
	Name string

	eng  *Engine
	done bool

	// next resumes the coroutine until its body blocks or returns; stop
	// makes a parked block return false (see yield) and runs the body's
	// unwind. yieldFn is the coroutine's yield, captured on first resume.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool

	// resumeFn is the one resume closure this process ever needs: binding
	// it once at spawn (with the cond callbacks in waiter) keeps
	// Delay/Yield/cond wakeups from allocating a fresh closure per block,
	// which together with the engine's event free list makes steady-state
	// scheduling allocation-free.
	resumeFn func()

	// waiter is the process's Cond wait state. A process blocks on at most
	// one Cond at a time, so the state lives here rather than in a per-wait
	// allocation.
	waiter condWaiter

	// each is the DelayEach loop the engine runs for the process, with
	// the callback that runs it; allocated at the process's first
	// switching DelayEach, since most processes never make one.
	each *eachLoop
}

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Go starts fn as a new process. The process begins executing at the current
// virtual time, after the currently running event or process yields.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e}
	p.resumeFn = func() { e.resume(p) }
	p.waiter.timeoutFn, p.waiter.wakeFn = p.timedOut, p.woken
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil && r != errShutdown {
				// Surface the panic to Run() with the process named.
				// Shutdown poison unwinds silently.
				e.procErr = fmt.Errorf("sim: proc %q panicked: %v", p.Name, r)
			}
			e.side = nil // a DelayEach step that ran inline panicked
			p.done = true
			e.liveProcs--
		}()
		fn(p)
	})
	e.liveProcs++
	e.procs = append(e.procs, p)
	e.At(e.now, p.resumeFn)
	return p
}

// yield returns control to the engine and blocks until the process is
// resumed by a scheduled event. Under Shutdown the coroutine's yield
// reports false, and the process unwinds with the errShutdown poison.
func (p *Proc) yield() {
	if side := p.eng.side; side != nil {
		panic(fmt.Sprintf("sim: proc %q blocked in engine-side code (a DelayEach step or a WaitPoll quiet check)", side.Name))
	}
	if !p.yieldFn(struct{}{}) {
		panic(errShutdown)
	}
}

// Delay advances the process by d cycles of uninterruptible work or sleep.
// When no queued event (cancelled ones included) is due at or before
// now+d and now+d is within the running RunUntil's horizon, Delay moves
// the clock itself and returns without a switch (event elision, see the
// package doc).
func (p *Proc) Delay(d uint64) {
	if d == 0 {
		return
	}
	e := p.eng
	// t > e.now rules out overflow; an event due at t is a tie, which
	// must switch. (elide is this test for DelayEach; Delay spells it out
	// to save a call on the hottest path.)
	if t := e.now + Time(d); t > e.now && t <= e.horizon && !e.q.dueBy(t) {
		e.now = t
		return
	}
	e.After(d, p.resumeFn)
	p.yield()
}

// elide is Delay(d) where it needs no switch: it reports true for a zero
// d, and for one it elides after moving the clock to now+d.
func (p *Proc) elide(d uint64) bool {
	if d == 0 {
		return true
	}
	e := p.eng
	if t := e.now + Time(d); t > e.now && t <= e.horizon && !e.q.dueBy(t) {
		e.now = t
		return true
	}
	return false
}

// DelayEach is exactly
//
//	for i := range n { p.Delay(d); step(i) }
//
// for a step that does not block: the per-page charges of a TLB flush
// loop, say. A step whose Delay elides runs inline. From the first Delay
// that would switch, the engine's callback runs that step and the rest as
// p (Current returns p), re-arming itself with the (time, sequence) p's
// own Delay would have used and eliding where that Delay would, and
// resumes p only after the last step: the loop switches at most once
// (see the package doc). A step that blocks panics, naming p; a step that
// panics surfaces from Run as p's panic, as it would inside p.
func (p *Proc) DelayEach(n int, d uint64, step func(i int)) {
	e := p.eng
	side := e.side // set when a step itself runs a DelayEach
	for i := 0; i < n; i++ {
		if !p.elide(d) {
			if p.each == nil {
				p.each = &eachLoop{fn: p.stepEach}
			}
			s := p.each
			s.step, s.i, s.n, s.d = step, i, n, d
			e.After(d, s.fn)
			p.yield()
			r := s.panicked
			s.step, s.panicked = nil, nil
			if r != nil {
				panic(r)
			}
			return
		}
		e.side = p
		step(i)
		e.side = side
	}
}

// eachLoop is a DelayEach loop the engine runs: step i is next, after
// its Delay; panicked is what a step panicked with. step is nil while no
// loop runs; fn is the process's stepEach, bound once.
type eachLoop struct {
	step     func(i int)
	i, n     int
	d        uint64
	panicked any
	fn       func()
}

// stepEach is the callback of a DelayEach loop's switching Delay: it runs
// the steps on from there and resumes p after the last one or a panic.
func (p *Proc) stepEach() {
	if p.runSteps() {
		p.eng.resume(p)
	}
}

// runSteps runs p's pending DelayEach steps as p, eliding each Delay that
// Delay would elide. At one that would switch it re-arms stepEach with
// the call p's Delay would have made and reports false; it reports true
// after the last step, or after a step panicked (kept for p to re-panic).
func (p *Proc) runSteps() (done bool) {
	e, s := p.eng, p.each
	prev := e.current
	e.current, e.side = p, p
	defer func() {
		e.current, e.side = prev, nil
		if r := recover(); r != nil {
			s.panicked, done = r, true
		}
	}()
	for {
		s.step(s.i)
		if s.i++; s.i == s.n {
			return true
		}
		if !p.elide(s.d) {
			e.After(s.d, s.fn)
			return false
		}
	}
}

// Yield lets every other runnable process and event at the current time run
// before this process continues. It costs zero cycles.
func (p *Proc) Yield() {
	p.eng.After(0, p.resumeFn)
	p.yield()
}
