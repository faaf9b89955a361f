// Fixture: wall-clock nondeterminism reaching a poll's period. The
// detflow analyzer must report exactly one finding, at the WaitPoll call:
// its period times every re-arm of the poll, so a period read from
// time.Now moves every later event from one replay to the next.
package detfix

import (
	"time"

	"shootdown/internal/sim"
)

func skewedPoll(c *sim.Cond, p *sim.Proc, quiet func(signaled bool) bool) {
	period := 1 + uint64(time.Now().UnixNano()%800)
	c.WaitPoll(p, 800, period, quiet)
}
