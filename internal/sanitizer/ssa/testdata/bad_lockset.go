// Fixture: three discipline breaks the lockset analyzer must report as
// exactly one finding each, and no witness.
//
//   - An ack-ordering break. The kicked handler reads the freed
//     page-table location ("mm%d.pt-nodes", ack-ordered in the race
//     registry), but the early-ack flag passed to CallMany is an
//     arbitrary caller-supplied boolean — nothing proves it is off while
//     FlushInfo.FreedTables is set, so a responder's read no longer
//     happens-before the initiator's reclaim. Unlike the seeded
//     fault.MutantEarlyAck variant, this unit never compares the config's
//     mutant, so the violation is a real finding, not a witness.
//   - The same break in a unit that forces the early ack after comparing
//     Config.Mutant with a different mutant: only the registry's seed
//     constant marks the seeded site.
//   - scratchProbe touches a detector variable no registry entry
//     declares, so no discipline can be proven for it.
package locksetfix

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func kickWithUnprovenAck(l *smp.Layer, c *kernel.CPU, d *race.Detector, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, info *core.FlushInfo, wantEarly bool) {
	rs := l.CallMany(p, from, targets, func(hp *sim.Proc, target mach.CPU, payload any) {
		fi := payload.(*core.FlushInfo)
		if fi.FreedTables {
			d.ReadVar(fmt.Sprintf("mm%d.pt-nodes", fi.AS.ID))
		}
	}, info, wantEarly, nil)
	c.WaitRequests(p, rs)
}

func kickUnderOtherMutant(l *smp.Layer, c *kernel.CPU, d *race.Detector, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, info *core.FlushInfo, cfg core.Config) {
	early := cfg.EarlyAck && !info.FreedTables
	if cfg.Mutant == fault.MutantCoalesceShrink {
		early = true
	}
	rs := l.CallMany(p, from, targets, func(hp *sim.Proc, target mach.CPU, payload any) {
		fi := payload.(*core.FlushInfo)
		if fi.FreedTables {
			d.ReadVar(fmt.Sprintf("mm%d.pt-nodes", fi.AS.ID))
		}
	}, info, early, nil)
	c.WaitRequests(p, rs)
}

func scratchProbe(d *race.Detector) {
	d.WriteVar("fixture.scratch")
}
