// Fixture: a wait on a hand-built request set. The ipistate analyzer must
// report exactly one finding — the DFA edge new → waited skips kicked:
// nothing was ever sent through smp.CallMany, so WaitRequests blocks on
// acks that can never arrive.
package ipifix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func waitWithoutKick(c *kernel.CPU, p *sim.Proc) {
	var reqs []*smp.Request
	c.WaitRequests(p, reqs)
}
