package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/smp"
	"shootdown/internal/workload"
)

// FaultSweep runs every deterministic-outcome scenario under each fault
// preset and reports two tables: what was injected (per-site fault
// counts plus the final-state digest and its match against the
// fault-free run) and what the recovery machinery did about it (ack
// timeouts, re-kicks, degradations, worst stall). The digest column is
// the experiment-level metamorphic check — every row of a scenario must
// match its fault-free digest — and the whole report is byte-identical
// at any scheduler worker count, so it doubles as a golden surface.
func FaultSweep(o Options) []*report.Table {
	specNames := []string{"none", "light", "heavy", "drop"}
	modes := []workload.Mode{workload.Safe, workload.Unsafe}
	if o.Quick {
		modes = modes[:1]
	}
	scenarios := workload.Scenarios()

	type cell struct {
		digest string
		fs     fault.Stats
		smp    smp.Stats
		drops  uint64
		delays uint64
	}
	// One job per (mode, spec, scenario); reassembled index-ordered.
	nSpec, nScen := len(specNames), len(scenarios)
	cells := sched.Collect(len(modes)*nSpec*nScen, func(i int) cell {
		mode := modes[i/(nSpec*nScen)]
		spec, ok := fault.Preset(specNames[(i/nScen)%nSpec])
		if !ok {
			panic(fmt.Sprintf("experiments: unknown fault preset %q", specNames[(i/nScen)%nSpec]))
		}
		s := scenarios[i%nScen]
		base := o.Base
		base.Faults = spec
		w := workload.MustBoot(workload.Machine{Base: base, Mode: mode, Core: core.All(), Seed: o.seed()})
		defer w.Close()
		spaces := s.Run(w)
		bus := w.K.Bus.Stats()
		return cell{
			digest: workload.StateDigest(spaces),
			fs:     w.Fault.Stats(),
			smp:    w.K.SMP.Stats(),
			drops:  bus.IPIsDropped,
			delays: bus.IPIsDelayed,
		}
	})

	inj := &report.Table{
		Title:  "Fault sweep — injected faults and final-state digests",
		Header: []string{"mode", "faults", "scenario", "digest", "match", "drops", "forced", "delays", "stalls", "ackdl", "evict", "recycle", "preempt"},
	}
	rec := &report.Table{
		Title:  "Fault sweep — shootdown recovery counters",
		Header: []string{"mode", "faults", "scenario", "ipi-dropped", "ipi-delayed", "ack-timeouts", "rekicks", "degraded-full", "max-ack-stall"},
	}
	for mi, mode := range modes {
		for si, specName := range specNames {
			for ci, s := range scenarios {
				c := cells[(mi*nSpec+si)*nScen+ci]
				base := cells[mi*nSpec*nScen+ci] // the "none" row of this mode/scenario
				match := "yes"
				if c.digest != base.digest {
					match = "NO"
				}
				inj.AddRow(mode.String(), specName, s.Name, c.digest, match,
					c.fs.Drops, c.fs.ForcedDeliveries, c.fs.Delays, c.fs.Stalls,
					c.fs.AckDelays, c.fs.Evictions, c.fs.Recycles, c.fs.Preempts)
				rec.AddRow(mode.String(), specName, s.Name,
					c.drops, c.delays, c.smp.AckTimeouts, c.smp.Rekicks,
					c.smp.DegradedFulls, c.smp.MaxAckStall)
			}
		}
	}
	inj.AddNote("match compares each digest against the fault-free run of the same mode/scenario/seed: faults must never change the final memory state")
	rec.AddNote("recovery: an initiator whose acks time out re-kicks with exponential backoff, then degrades outstanding precise flushes to full flushes")
	return []*report.Table{inj, rec}
}
