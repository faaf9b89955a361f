// Package sim provides a deterministic discrete-event simulation engine
// with a cooperative process model.
//
// The engine maintains a virtual clock measured in CPU cycles and an event
// queue ordered by (time, insertion sequence): a hierarchical timer wheel
// (wheel.go) over a slab of events, whose slots are FIFOs linked through
// the events themselves and whose levels keep summary bits that find the
// first occupied slot in two steps. RunUntil takes each event with one
// pop that also checks its horizon (popUntil). Simulated activities run
// as processes (Proc): coroutines (iter.Pull) that execute strictly one
// at a time, handing control back to the engine whenever they block
// (Delay, Cond.Wait, ...). The engine and a process pass the running
// thread to each other directly (the runtime's coroutine switch), so no
// switch goes through the Go scheduler. Because at most one process runs
// at any instant and ties in the event queue are broken by insertion
// order, a simulation with a fixed seed is fully deterministic.
//
// Event elision: a process that calls Delay(d) is the only runner until the
// next queued event. When that event is strictly later than now+d and
// now+d is within the running RunUntil's horizon, nothing can run in
// between, so Delay sets the clock to now+d and returns with no resume
// event, no sequence number and no switch. The elided resume event would
// have been the very next event dispatched, so every schedule is the one
// the always-switch path produces (TestDelayElisionDifferential). A queued
// event at exactly now+d forces the switch: it was scheduled first, so it
// holds the lower sequence number and runs before the process resumes.
// Outside RunUntil the horizon is zero, so a process unwinding under
// Shutdown still parks and is poisoned.
//
// Quiet polls: a process that polls (waits, and at each wake checks for
// work and, finding none, waits again) blocks in Cond.WaitPoll with its
// check. The callback of the wake, a Signal or Broadcast's or the
// timeout's, runs the check itself and tells it which wake it is. While
// it finds nothing to do, the callback re-arms the timeout with the call
// the process would have made, at the same time and so with the same
// sequence number, and puts the process at the cond's FIFO tail, where
// its re-wait would have appended it. The process stays parked, with no
// switch. The re-arm is exact because nothing else runs between a wake
// and the process's re-wait: the check sees the state the process would
// have seen, and must change nothing but what the skipped steps would have
// recorded (TestCondWaitPollDifferential). A check whose process would
// re-wait differently after a signal declines it, and the process resumes.
// That the check runs in the process's stead is also why Current()
// reports the waiting process during it: a race model that attributes
// the check's loads by Current() then charges them to the process that
// would have made them.
//
// The package is the foundation for every other simulated component in this
// repository: cores, TLBs, APICs and kernel code are all expressed as
// processes and events on a shared Engine.
//
// Engines are independent: two engines share no state, so separate
// simulations may run on separate OS threads concurrently (see
// internal/sched). A single Engine remains strictly single-threaded.
package sim

import (
	"errors"
	"fmt"
)

// Time is a point in virtual time, measured in cycles since simulation start.
type Time uint64

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An Event handle is only valid until the event fires (or, if cancelled,
// until the engine drains it from the queue): fired events are recycled
// into the free list of the engine's event slab, so retaining a handle
// past its firing and calling Cancel on it later would act on an
// unrelated event.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	next      uint32 // id of the next event in its slot, batch or free list; 0 ends it
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an event that was
// already cancelled is a no-op. Cancel must not be called after the event
// fired: the handle is recycled at that point (see the Event doc).
func (ev *Event) Cancel() { ev.cancelled = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Engine is a deterministic discrete-event simulator.
//
// An Engine must be driven from a single goroutine via Run or RunUntil.
// It is not safe for concurrent use; processes spawned with Go interleave
// cooperatively and never run in parallel with the engine or each other.
// Distinct Engines share nothing and may run concurrently.
type Engine struct {
	now Time
	// q is the event queue and owns the event slab: every fired or
	// drained-cancelled event is recycled into its free list, so
	// steady-state scheduling (Delay, Yield, cond wakeups) allocates
	// nothing.
	q   timerWheel
	seq uint64
	rng *Rand

	liveProcs int
	procs     []*Proc
	procErr   error
	current   *Proc

	// horizon is RunUntil's horizon while it runs and zero otherwise: the
	// latest time a Delay may advance the clock to without a switch.
	horizon Time
}

// NewEngine returns an engine with the clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRand(seed)}
	// Room to index a 2,048-event slab, so a fresh engine allocates only
	// its chunks until it holds that many events at once.
	e.q.chunks = make([]*[slabChunk]Event, 0, 8)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of events (cancelled or not) still queued.
func (e *Engine) Pending() int { return e.q.len() }

// LiveProcs returns the number of processes that have been started and have
// not yet returned.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a simulation that rewinds its clock is always a bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	id, ev := e.q.alloc()
	ev.at, ev.seq, ev.fn, ev.cancelled = t, e.seq, fn, false
	e.q.push(id, ev)
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) *Event {
	return e.At(e.now+Time(d), fn)
}

// Run executes events until the queue is empty. Processes that are blocked on
// conditions with no future signal are left blocked; Run returns when no
// event can advance the simulation further. If a process panicked, Run
// re-panics with its error.
func (e *Engine) Run() {
	e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= horizon. The clock stops at
// the last executed event or elided Delay (it does not jump to horizon).
func (e *Engine) RunUntil(horizon Time) {
	e.horizon = horizon
	defer func() { e.horizon = 0 }()
	for {
		id, ev := e.q.popUntil(horizon)
		if id == 0 {
			return
		}
		if ev.cancelled {
			e.q.release(id, ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.q.release(id, ev)
		fn()
		if e.procErr != nil {
			panic(e.procErr)
		}
	}
}

// errShutdown is the poison a parked process unwinds with during Shutdown:
// its yield reports false and re-panics with it, and the proc trampoline
// swallows it.
var errShutdown = errors.New("sim: engine shut down")

// Shutdown drains the engine after the simulation is over: every process
// that is still blocked (on a Delay that will never elapse under a panicked
// run, a Cond with no future signal, an idle CPU loop, ...) is stopped and
// unwound, so its coroutine exits. Without this, every booted machine parks
// its per-CPU loops forever — across thousands of pooled runs that is an
// unbounded goroutine leak. A process that blocks again while unwinding
// (a deferred Delay, say) is poisoned again, so it cannot re-park.
//
// Shutdown must be called from the goroutine that drives the engine, after
// Run/RunUntil returned or panicked. The engine must not be used afterwards.
// It is idempotent, and LiveProcs reports 0 once it returns.
func (e *Engine) Shutdown() {
	// Index loop: a dying process could in principle spawn another during
	// unwind; appended procs are drained in the same pass.
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		if p.done {
			continue
		}
		e.current = p
		p.stop()
		if !p.done {
			// Never started: stop skipped the body and its bookkeeping.
			p.done = true
			e.liveProcs--
		}
	}
	e.current = nil
	e.procs = nil
	e.q.clear()
	e.procErr = nil
}

// Current returns the process that is executing right now, or nil when
// control is inside the event loop itself (timer callbacks, hooks fired
// from events). Observational tooling uses this to attribute actions —
// lock acquisitions, PTE writes — to the simulated actor performing them.
func (e *Engine) Current() *Proc { return e.current }

// resume switches to p's coroutine and returns when p blocks or returns.
func (e *Engine) resume(p *Proc) {
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}
