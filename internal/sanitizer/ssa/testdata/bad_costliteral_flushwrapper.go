// Fixture: a hard-coded cost passed to a FlushPages-style wrapper, whose
// cost parameter reaches DelayEach through a second wrapper. The
// costliteral analyzer must report exactly one finding, at the literal.
package costflushfix

import "shootdown/internal/sim"

type cpu struct{ flushed uint64 }

func (c *cpu) step(int) { c.flushed++ }

func (c *cpu) FlushPages(p *sim.Proc, start, end, stride, cost uint64) {
	c.flushPages(p, int((end-start)/stride), cost)
}

func (c *cpu) flushPages(p *sim.Proc, n int, cost uint64) {
	p.DelayEach(n, cost, c.step)
}

func rangedFlush(p *sim.Proc, c *cpu, invlpg uint64) {
	c.FlushPages(p, 0, 8<<12, 1<<12, 150) // should come from the cost model
	c.FlushPages(p, 0, 8<<12, 1<<12, invlpg)
}
