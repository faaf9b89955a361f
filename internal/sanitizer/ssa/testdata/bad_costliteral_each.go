// Fixture: a hard-coded per-step cost passed to DelayEach. The
// costliteral analyzer must report exactly one finding, at the literal;
// the step count is not a cost.
package costeachfix

import "shootdown/internal/sim"

func flushLoop(p *sim.Proc, pages int, cost uint64, step func(int)) {
	p.DelayEach(pages, 220, step) // should come from the cost model
	p.DelayEach(4, cost, step)
}
