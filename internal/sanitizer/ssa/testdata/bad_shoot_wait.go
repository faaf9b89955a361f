// Fixture: a wait on a hand-built request set, which nothing was ever
// kicked for. Outside package kernel the only ack wait is the one
// smp.Layer.Shoot ends in, on the requests it just kicked; the wait
// itself is the unexported kernel.CPU.waitRequests. This file must
// therefore fail to type-check.
package shootfix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func waitWithoutKick(c *kernel.CPU, p *sim.Proc) {
	var reqs []*smp.Request
	c.WaitRequests(p, reqs)
}
