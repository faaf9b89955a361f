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
	// t > e.now rules out overflow; next == t is a tie, which must switch.
	if t := e.now + Time(d); t > e.now && t <= e.horizon {
		if next, ok := e.q.nextTime(); !ok || next > t {
			e.now = t
			return
		}
	}
	e.After(d, p.resumeFn)
	p.yield()
}

// Yield lets every other runnable process and event at the current time run
// before this process continues. It costs zero cycles.
func (p *Proc) Yield() {
	p.eng.After(0, p.resumeFn)
	p.yield()
}
