package sim

import "slices"

// Cond is a condition variable for processes. Waiters are resumed in FIFO
// order via the event queue, preserving determinism.
//
// Unlike sync.Cond there is no associated lock: the simulation is single
// threaded, so checking a predicate and calling Wait is atomic with respect
// to other processes.
//
// Blocking allocates nothing once warm: a waiter's state lives in its Proc,
// the timeout and wake callbacks are bound once per process, and the FIFO
// keeps its backing array.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// condWaiter is a process's wait state, embedded in Proc.
type condWaiter struct {
	// cond is the Cond the process last blocked in WaitTimeout on; the
	// timeout callback removes the process from its FIFO, and a wake's
	// re-arm appends it again.
	cond     *Cond
	signaled bool
	// timeoutEv is the pending timeout of a WaitTimeout, and nil at every
	// other time: the handle is recycled once the event fires.
	timeoutEv *Event
	// timeoutFn and wakeFn are the process's timeout expiry and Signal/
	// Broadcast wake callbacks, bound once at spawn like resumeFn.
	timeoutFn, wakeFn func()
	// deadline is when the pending timeout is due. quiet and period are a
	// WaitPoll's quiet check and re-arm interval; quiet is nil outside a
	// WaitPoll.
	deadline Time
	quiet    func(signaled bool) bool
	period   uint64
}

// NewCond returns a condition variable bound to the engine.
func (e *Engine) NewCond() *Cond {
	return &Cond{eng: e}
}

// Waiters returns the number of processes currently blocked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Wait blocks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.yield()
}

// WaitTimeout blocks p until the cond is signaled or d cycles elapse.
// It reports whether the wakeup was a signal (true) or a timeout (false).
func (c *Cond) WaitTimeout(p *Proc, d uint64) (signaled bool) {
	return c.waitTimeout(p, d, 0, nil)
}

// WaitPoll is WaitTimeout(p, d) for a process that polls: each time its
// wait ends it would call quiet(signaled), with signaled as WaitTimeout
// returned it, and, finding nothing to do, WaitTimeout(p, period) again.
// The engine runs that check in the signal's wake or the timeout's expiry
// callback instead, as p (Current returns p). While quiet reports true,
// the callback re-arms the timeout period cycles on and puts p at the
// FIFO's tail, the (time, sequence) and FIFO place p's own re-wait would
// take, and p stays parked: no switch. Once quiet reports false, p
// resumes as from that signal or timeout. quiet must not change simulated
// state beyond what p's skipped steps would have recorded, and must not
// read the cond's waiters. A process whose re-wait after a signal would
// differ (keep its deadline, say) declines the signal: quiet(true)
// reports false. A nil quiet makes WaitPoll WaitTimeout(p, d). A zero
// period would re-arm at the same time forever, so WaitPoll panics on it.
//
// WaitPoll returns the cycles the timeout in effect had left when p
// resumed: 0 after a timeout, else the rest of d or of the latest period.
func (c *Cond) WaitPoll(p *Proc, d, period uint64, quiet func(signaled bool) bool) (left uint64) {
	if period == 0 {
		panic("sim: Cond.WaitPoll with a zero period")
	}
	c.waitTimeout(p, d, period, quiet)
	if now := c.eng.now; p.waiter.deadline > now {
		return uint64(p.waiter.deadline - now)
	}
	return 0
}

func (c *Cond) waitTimeout(p *Proc, d, period uint64, quiet func(bool) bool) bool {
	w := &p.waiter
	w.cond, w.signaled = c, false
	w.quiet, w.period = quiet, period
	w.deadline = c.eng.now + Time(d)
	w.timeoutEv = c.eng.At(w.deadline, w.timeoutFn)
	c.waiters = append(c.waiters, p)
	p.yield()
	// A later Wait must not inherit the check: wakeFn runs it on any wake.
	w.timeoutEv, w.quiet = nil, nil
	return w.signaled
}

// timedOut is the WaitTimeout expiry: drop p from the FIFO and resume it,
// unless a WaitPoll's quiet check holds (see WaitPoll).
func (p *Proc) timedOut() {
	c := p.waiter.cond
	if p.rearm(false) {
		c.requeue(p)
		return
	}
	c.remove(p)
	p.eng.resume(p)
}

// woken is a Signal or Broadcast's wake, which already took p off the
// FIFO: resume p, unless a WaitPoll's quiet check holds (see WaitPoll).
func (p *Proc) woken() {
	if p.rearm(true) {
		c := p.waiter.cond
		c.waiters = append(c.waiters, p)
		return
	}
	p.eng.resume(p)
}

// rearm runs a WaitPoll's quiet check, told whether a signal (true) or
// the timeout woke p, with Current() reporting p, as if p's body called
// it. Where the check holds, rearm clears the signal and re-arms the
// timeout period cycles on, as p's own re-wait would; the caller puts p
// at the FIFO's tail. A wait with no check is never re-armed.
func (p *Proc) rearm(signaled bool) bool {
	w := &p.waiter
	if w.quiet == nil {
		return false
	}
	e := p.eng
	prev := e.current
	e.current, e.side = p, p
	ok := w.quiet(signaled)
	e.current, e.side = prev, nil
	if ok {
		w.signaled = false
		w.deadline = e.now + Time(w.period)
		w.timeoutEv = e.At(w.deadline, w.timeoutFn)
	}
	return ok
}

// Signal wakes the longest-waiting process, if any. The waiter resumes at
// the current virtual time, after the caller yields.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	c.wake(p)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.wake(p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

func (c *Cond) wake(p *Proc) {
	w := &p.waiter
	w.signaled = true
	if w.timeoutEv != nil {
		w.timeoutEv.Cancel()
	}
	c.eng.After(0, w.wakeFn)
}

func (c *Cond) remove(p *Proc) {
	if i := slices.Index(c.waiters, p); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
}

// requeue moves p to the FIFO's tail, where a remove and a fresh append
// would leave it. A lone or last waiter is there already.
func (c *Cond) requeue(p *Proc) {
	if n := len(c.waiters); n > 0 && c.waiters[n-1] == p {
		return
	}
	c.remove(p)
	c.waiters = append(c.waiters, p)
}
