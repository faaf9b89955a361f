// Fixture: a double discharge. The ipistate analyzer must report exactly
// one finding at the second WaitRequests — the request set is already
// acked and discharged on every path reaching it, so the second wait
// consumes acks that were never re-armed (typestate discharged → waited
// is not an edge).
package ipifix2

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func doubleWait(l *smp.Layer, c *kernel.CPU, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) {
	reqs := l.CallMany(p, from, targets, fn, nil, false, nil)
	c.WaitRequests(p, reqs)
	c.WaitRequests(p, reqs)
}
