// Fixture: three discipline breaks the lockset analyzer must report as
// exactly one finding each, and no witness. Each kick binds its handler
// to a local first, which the analyzers chase to the closure.
//
//   - An ack-ordering break. The kicked handler reads the freed
//     page-table location ("mm%d.pt-nodes", ack-ordered in the race
//     registry), but the early-ack flag passed to Shoot is an
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
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func kickWithUnprovenAck(l *smp.Layer, d *race.Detector, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, info *core.FlushInfo, wantEarly bool) {
	handler := func(hp *sim.Proc, target mach.CPU, payload any) {
		fi := payload.(*core.FlushInfo)
		if fi.FreedTables {
			d.ReadVar(fmt.Sprintf("mm%d.pt-nodes", fi.AS.ID))
		}
	}
	l.Shoot(p, from, targets, handler, info, wantEarly, nil, nil)
}

func kickUnderOtherMutant(l *smp.Layer, d *race.Detector, p *sim.Proc, from mach.CPU,
	targets mach.CPUMask, info *core.FlushInfo, cfg core.Config) {
	early := cfg.EarlyAck && !info.FreedTables
	if cfg.Mutant == fault.MutantCoalesceShrink {
		early = true
	}
	handler := func(hp *sim.Proc, target mach.CPU, payload any) {
		fi := payload.(*core.FlushInfo)
		if fi.FreedTables {
			d.ReadVar(fmt.Sprintf("mm%d.pt-nodes", fi.AS.ID))
		}
	}
	l.Shoot(p, from, targets, handler, info, early, nil, nil)
}

func scratchProbe(d *race.Detector) {
	d.WriteVar("fixture.scratch")
}
