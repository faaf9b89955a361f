// Fixture: constant cycle costs that are not literals at the call site.
// The costliteral analyzer must report exactly two findings — a named
// constant at a Delay call, and the same constant routed through a thin
// wrapper whose parameter the fixpoint proves cost-like.
package costfix

import "shootdown/internal/sim"

const fixedCost = 120

func chargeFixed(p *sim.Proc) {
	p.Delay(fixedCost)
}

func delayVia(p *sim.Proc, cost uint64) {
	p.Delay(cost)
}

func chargeWrapped(p *sim.Proc) {
	delayVia(p, fixedCost)
}
