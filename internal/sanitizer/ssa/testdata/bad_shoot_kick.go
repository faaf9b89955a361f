// Fixture: a kick nobody waits on. Outside package smp the only kick is
// smp.Layer.Shoot, which returns once every target has acknowledged;
// the queue-and-kick half is the unexported callMany. This file must
// therefore fail to type-check, so no analyzer needs to find the
// request set it would have let escape unwaited.
package shootfix

import (
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func kickWithoutWait(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return l.CallMany(p, from, targets, fn, nil, false, nil)
}
