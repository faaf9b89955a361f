// Fixture: a polling cond wait inside an IPI handler. The mhp analyzer
// must report exactly one finding in this file: sim.Cond.WaitPoll parks
// the responder like WaitTimeout does, in the closure registered through
// smp.CallMany, where the initiator is spinning on this CPU's ack.
package mhpfix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func pollingHandler(l *smp.Layer, k *kernel.Kernel, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, c *sim.Cond, ready *bool, payload any) {
	rs := l.CallMany(p, from, targets, func(hp *sim.Proc, target mach.CPU, pl any) {
		c.WaitPoll(hp, 800, 800, func(bool) bool { return !*ready })
	}, payload, false, nil)
	k.CPU(from).WaitRequests(p, rs)
}
