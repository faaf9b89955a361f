// Fixture: machine-model code charging a hard-coded cycle count. The
// costliteral analyzer must report exactly one finding, at the literal.
package costlitfix

import "shootdown/internal/sim"

func handleIPI(p *sim.Proc, cost uint64) {
	p.Delay(500) // should come from the cost model
	p.Delay(cost)
	p.Delay(2 * cost) // expressions over model costs are fine
}
