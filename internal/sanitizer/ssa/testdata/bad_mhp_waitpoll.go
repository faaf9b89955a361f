// Fixture: a polling cond wait inside an IPI handler. The mhp analyzer
// must report exactly one finding in this file: sim.Cond.WaitPoll parks
// the responder like WaitTimeout does, in the closure registered through
// smp.Layer.Shoot, where the initiator is spinning on this CPU's ack
// (Shoot returns only once every target has acknowledged).
package mhpfix

import (
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func pollingHandler(l *smp.Layer, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, c *sim.Cond, ready *bool, payload any) {
	l.Shoot(p, from, targets, func(hp *sim.Proc, target mach.CPU, pl any) {
		c.WaitPoll(hp, 800, 800, func(bool) bool { return !*ready })
	}, payload, false, nil, nil)
}
