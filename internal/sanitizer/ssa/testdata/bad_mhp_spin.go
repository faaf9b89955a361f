// Fixture: a spin wait inside an IPI handler. The mhp analyzer must
// report exactly one finding in this file: SpinUntil parks the responder
// between polls (the engine may even re-arm the poll without resuming
// it), so spinning in the closure registered through smp.Layer.Shoot would
// hold off the ack the initiator is waiting on.
package mhpfix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func spinningHandler(l *smp.Layer, k *kernel.Kernel, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, ready *bool, payload any) {
	l.Shoot(p, from, targets, func(hp *sim.Proc, target mach.CPU, pl any) {
		k.CPU(target).SpinUntil(hp, func() bool { return *ready }, 500)
	}, payload, false, nil, nil)
}
