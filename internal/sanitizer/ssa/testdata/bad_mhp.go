// Fixture: a blocking call inside an IPI handler. The mhp analyzer must
// report exactly one finding in this file: the closure registered
// through smp.Layer.Shoot runs in the responder's IRQ dispatch, where
// taking mmap_sem (kernel.CPU.DownRead parks the proc) would deadlock
// the shootdown — the initiator is spinning on this very CPU's ack.
package mhpfix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func sleepyHandler(l *smp.Layer, k *kernel.Kernel, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, sem *mm.RWSem, payload any) {
	l.Shoot(p, from, targets, func(hp *sim.Proc, target mach.CPU, pl any) {
		rc := k.CPU(target)
		rc.DownRead(hp, sem)
		defer sem.UpRead(hp)
	}, payload, false, nil, nil)
}
