// Fixture: every legal shape of the shootdown request lifecycle. The
// ipistate analyzer must stay silent — the DFA covers the plain
// kick-then-wait path and both deferred-discharge edges (returning the
// requests and enqueueing them into a field) that transfer the
// obligation to a consumer.
package ipifixok

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func kickAndWait(l *smp.Layer, c *kernel.CPU, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) {
	reqs := l.CallMany(p, from, targets, fn, nil, false, nil)
	c.WaitRequests(p, reqs)
}

// transferOut hands freshly kicked requests to the caller: the deferred
// discharge edge. The fixpoint also classifies transferOut itself as a
// CallMany wrapper, so callers inherit the discharge duty.
func transferOut(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return l.CallMany(p, from, targets, fn, nil, false, nil)
}

// shootdownQueue is the enqueue-transfer shape: the producer parks
// in-flight requests, the consumer discharges them.
type shootdownQueue struct {
	pending []*smp.Request
}

func (q *shootdownQueue) enqueue(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) {
	q.pending = l.CallMany(p, from, targets, fn, nil, false, nil)
}

func (q *shootdownQueue) drain(c *kernel.CPU, p *sim.Proc) {
	c.WaitRequests(p, q.pending)
	q.pending = nil
}
