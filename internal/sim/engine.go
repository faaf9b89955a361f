// Package sim provides a deterministic discrete-event simulation engine
// with a cooperative process model.
//
// The engine maintains a virtual clock measured in CPU cycles and an event
// heap ordered by (time, insertion sequence). Simulated activities run as
// processes (Proc): coroutines (iter.Pull) that execute strictly one at a
// time, handing control back to the engine whenever they block (Delay,
// Cond.Wait, ...). The engine and a process pass the running thread to
// each other directly (the runtime's coroutine switch), so no switch goes
// through the Go scheduler. Because at most one process runs at any
// instant and ties in the event heap are broken by insertion order, a
// simulation with a fixed seed is fully deterministic.
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
// into the engine's free list, so retaining a handle past its firing and
// calling Cancel on it later would act on an unrelated event.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an event that was
// already cancelled is a no-op. Cancel must not be called after the event
// fired: the handle is recycled at that point (see the Event doc).
func (ev *Event) Cancel() { ev.cancelled = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// eventQueue is the engine's pending-event store, ordered by (at, seq).
// Two implementations exist: the binary min-heap below (EngineHeap) and
// the hierarchical timer wheel in wheel.go (EngineWheel, the default).
// Both realize the exact same total order, so the engine's event schedule
// — and therefore every simulation output — is identical under either;
// TestEngineKindsEquivalent and the experiment-level equivalence sweep
// hold them to that.
type eventQueue interface {
	// push inserts ev. Events pushed at equal times must pop in push
	// order (At allocates strictly increasing seq, so (at, seq) is the
	// total order).
	push(ev *Event)
	// nextTime returns the timestamp of the minimum pending event. It
	// must not disturb queue state observable through pop order.
	nextTime() (Time, bool)
	// pop removes and returns the minimum event.
	pop() *Event
	// len returns the number of pending events (cancelled included).
	len() int
	// clear drops all state so the queue retains no event references.
	clear()
}

// EngineKind names an eventQueue implementation.
type EngineKind string

const (
	// EngineHeap is the binary min-heap scheduler (the original
	// implementation; ns/event grows with log of pending events).
	EngineHeap EngineKind = "heap"
	// EngineWheel is the hierarchical timer wheel (wheel.go): O(1)
	// pushes and batched same-timestamp dispatch keep ns/event flat as
	// machine width grows. The default.
	EngineWheel EngineKind = "wheel"
)

// ParseEngineKind validates a -engine flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case EngineHeap, EngineWheel:
		return EngineKind(s), nil
	case "":
		return EngineWheel, nil
	}
	return "", fmt.Errorf("sim: unknown engine kind %q (have %q, %q)", s, EngineHeap, EngineWheel)
}

// eventHeap is a binary min-heap ordered by (at, seq). It is implemented
// concretely — not via container/heap — so that pushes and pops stay free
// of interface boxing: this is the hottest data structure in the
// repository (every Delay of every simulated process passes through it).
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap property (sift-up).
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down).
func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	min := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

// heapQueue adapts eventHeap to the eventQueue interface.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *Event) { q.h.push(ev) }
func (q *heapQueue) pop() *Event    { return q.h.pop() }
func (q *heapQueue) len() int       { return len(q.h) }
func (q *heapQueue) clear()         { q.h = nil }
func (q *heapQueue) nextTime() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Engine is a deterministic discrete-event simulator.
//
// An Engine must be driven from a single goroutine via Run or RunUntil.
// It is not safe for concurrent use; processes spawned with Go interleave
// cooperatively and never run in parallel with the engine or each other.
// Distinct Engines share nothing and may run concurrently.
type Engine struct {
	now  Time
	q    eventQueue
	kind EngineKind
	seq  uint64
	rng  *Rand

	// free is the event free list: every fired or drained-cancelled event
	// is recycled here, so steady-state scheduling (Delay, Yield, cond
	// wakeups) allocates nothing.
	free []*Event

	liveProcs int
	procs     []*Proc
	procErr   error
	current   *Proc
}

// NewEngine returns an engine with the clock at zero and a deterministic
// random source derived from seed, using the default (timer-wheel) event
// scheduler.
func NewEngine(seed uint64) *Engine {
	return NewEngineKind(EngineWheel, seed)
}

// NewEngineKind returns an engine using the named event scheduler. Both
// kinds realize the identical (time, insertion-seq) event order, so they
// are output-equivalent; the wheel keeps ns/event flat on wide machines
// while the heap remains as the reference implementation.
func NewEngineKind(kind EngineKind, seed uint64) *Engine {
	var q eventQueue
	switch kind {
	case EngineHeap:
		q = &heapQueue{}
	case EngineWheel, "":
		kind = EngineWheel
		q = newTimerWheel()
	default:
		panic(fmt.Sprintf("sim: unknown engine kind %q", kind))
	}
	return &Engine{
		q:    q,
		kind: kind,
		rng:  NewRand(seed),
	}
}

// Kind returns the engine's event-scheduler implementation.
func (e *Engine) Kind() EngineKind { return e.kind }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of events (cancelled or not) still queued.
func (e *Engine) Pending() int {
	if e.q == nil {
		return 0
	}
	return e.q.len()
}

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
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.cancelled = t, e.seq, fn, false
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn}
	}
	e.q.push(ev)
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) *Event {
	return e.At(e.now+Time(d), fn)
}

// release returns a drained event to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Run executes events until the heap is empty. Processes that are blocked on
// conditions with no future signal are left blocked; Run returns when no
// event can advance the simulation further. If a process panicked, Run
// re-panics with its error.
func (e *Engine) Run() {
	e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= horizon. The clock stops at
// the last executed event (it does not jump to horizon).
func (e *Engine) RunUntil(horizon Time) {
	for e.q.len() > 0 {
		if t, ok := e.q.nextTime(); !ok || t > horizon {
			return
		}
		next := e.q.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.at
		fn := next.fn
		e.release(next)
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
	if e.q != nil {
		e.q.clear()
	}
	e.free = nil
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
