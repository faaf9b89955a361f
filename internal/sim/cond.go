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
// the timeout callback is bound once per process, and the FIFO keeps its
// backing array.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// condWaiter is a process's wait state, embedded in Proc.
type condWaiter struct {
	// cond is the Cond the process last blocked in WaitTimeout on; the
	// timeout callback removes the process from its FIFO.
	cond     *Cond
	signaled bool
	// timeoutEv is the pending timeout of a WaitTimeout, and nil at every
	// other time: the handle is recycled once the event fires.
	timeoutEv *Event
	// timeoutFn is the process's WaitTimeout expiry callback, bound once
	// at spawn like resumeFn.
	timeoutFn func()
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
	w := &p.waiter
	w.cond, w.signaled = c, false
	w.timeoutEv = c.eng.After(d, w.timeoutFn)
	c.waiters = append(c.waiters, p)
	p.yield()
	w.timeoutEv = nil
	return w.signaled
}

// timedOut is the WaitTimeout expiry: drop p from the FIFO and resume it.
func (p *Proc) timedOut() {
	p.waiter.cond.remove(p)
	p.resumeFn()
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
	c.eng.After(0, p.resumeFn)
}

func (c *Cond) remove(p *Proc) {
	if i := slices.Index(c.waiters, p); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
}
