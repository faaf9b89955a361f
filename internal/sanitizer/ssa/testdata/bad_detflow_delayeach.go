// Fixture: a DelayEach step count taken from map iteration. DelayEach's
// count and cost time every step like Delay's cost, so the detflow
// analyzer must report exactly one finding, at the DelayEach.
package detflowdelayeach

import "shootdown/internal/sim"

func flushAll(p *sim.Proc, pages map[uint64]int, cost uint64, step func(int)) {
	for _, n := range pages {
		p.DelayEach(n, cost, step) // order-dependent timing: nondeterministic
	}
}
