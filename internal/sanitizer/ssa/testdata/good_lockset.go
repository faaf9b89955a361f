// Fixture: the disciplined counterpart of bad_lockset.go's ack-ordering
// break — zero lockset findings.
//
//   - kickWithGuardedAck suppresses the early ack with the canonical
//     `early && !info.FreedTables` guard, so the ack-ordering discharge
//     succeeds even though the handler reads the ack-ordered location.
//   - The handler also reads the responder's TLB generation through
//     kernel.CPU.LocalGen, whose owner check asserts at run time that
//     the servicing CPU's proc runs it, so the call needs no proof
//     here and the cpu-confined discipline stays proven.
package locksetfix

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func kickWithGuardedAck(l *smp.Layer, k *kernel.Kernel, d *race.Detector, p *sim.Proc,
	from mach.CPU, targets mach.CPUMask, as *mm.AddressSpace, info *core.FlushInfo, early bool) {
	earlyAck := early && !info.FreedTables
	l.Shoot(p, from, targets, func(hp *sim.Proc, target mach.CPU, payload any) {
		fi := payload.(*core.FlushInfo)
		if fi.FreedTables {
			d.ReadVar(fmt.Sprintf("mm%d.pt-nodes", fi.AS.ID))
		}
		// The servicing CPU reading its own generation: LocalGen checks it.
		_ = k.CPU(target).LocalGen(as)
	}, info, earlyAck, nil, nil)
}
