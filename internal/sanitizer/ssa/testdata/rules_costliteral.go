// Fixture: one call per costliteral rule. TestCostLiteralRules pins every
// finding by line and message; the zero costs are exempt.
package costrules

import "shootdown/internal/sim"

const fixedCost = 120

func inLiteral(p *sim.Proc) func() {
	return func() {
		p.Delay(300)
	}
}

func converted(p *sim.Proc) {
	p.Delay(uint64(fixedCost))
}

func delayInner(p *sim.Proc, cost uint64) { p.Delay(cost) }

func delayOuter(p *sim.Proc, cost uint64) { delayInner(p, cost) }

func viaTwoWrappers(p *sim.Proc) {
	delayOuter(p, 40)
}

// delayLater forwards its cost from a literal it returns, which makes the
// parameter cost-like as if the enclosing function charged it.
func delayLater(p *sim.Proc, cost uint64) func() {
	return func() { p.Delay(cost) }
}

func viaLiteralWrapper(p *sim.Proc) {
	delayLater(p, 7)()
}

func zeroIsExempt(p *sim.Proc) {
	p.Delay(0)
	delayOuter(p, 0)
}

// delayEach reads its cost inside a loop, through a phi of the parameter.
func delayEach(p *sim.Proc, n int, cost uint64) {
	for i := 0; i < n; i++ {
		p.Delay(cost)
	}
}

// delayCapped rebinds its cost on one path; the Delay still passes the
// parameter's variable.
func delayCapped(p *sim.Proc, cost uint64) {
	if cost > 1000 {
		cost = 1000
	}
	p.Delay(cost)
}

func viaLoopAndJoin(p *sim.Proc) {
	delayEach(p, 2, 500)
	delayCapped(p, 600)
}

// A converted literal is a constant expression, named like a constant; a
// local initialized with a constant is a variable at the call.
func convertedLiteral(p *sim.Proc) {
	p.Delay(uint64(300))
	c := uint64(500)
	p.Delay(c)
}
