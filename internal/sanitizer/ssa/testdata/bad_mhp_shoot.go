// Fixture: a shootdown started inside an IPI handler. The mhp analyzer
// must report exactly one finding in this file: smp.Layer.Shoot parks
// the responder in the ack wait until its own targets acknowledge, while
// the initiator that kicked it is spinning on this CPU's ack. The wait
// runs behind smp's func field, out of the call graph's sight, so Shoot
// itself is the blocking call.
package mhpfix

import (
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func nestedShootHandler(l *smp.Layer, p *sim.Proc, from mach.CPU,
	targets, inner mach.CPUMask, payload any) {
	l.Shoot(p, from, targets, func(hp *sim.Proc, target mach.CPU, pl any) {
		l.Shoot(hp, target, inner, func(*sim.Proc, mach.CPU, any) {}, pl, false, nil, nil)
	}, payload, false, nil, nil)
}
