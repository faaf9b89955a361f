package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// Ablations probes the design decisions DESIGN.md calls out:
//
//   - each §3 optimization alone (not cumulative), isolating its
//     contribution;
//   - early acknowledgement with the freed-page-tables exception forced on
//     (munmap-heavy workload) to show the suppressed case;
//   - in-context flushing with and without the concurrent interaction.
func Ablations(o Options) []*report.Table {
	return []*report.Table{
		ablationSingles(o),
		ablationEarlyAckSuppression(o),
		ablationInContextInteraction(o),
	}
}

// ablationSingles measures each §3 technique in isolation against the
// baseline, cross socket, 10 PTEs, safe mode.
func ablationSingles(o Options) *report.Table {
	iters, runs := microIterations(o)
	tab := &report.Table{
		Title:  "Ablation — each technique alone (safe, 10 PTEs, cross socket)",
		Header: []string{"config", "initiator cycles", "reduction", "responder cycles", "reduction"},
	}
	singles := []core.Config{
		{},
		{ConcurrentFlush: true},
		{EarlyAck: true},
		{CachelineConsolidation: true},
		{InContextFlush: true},
	}
	results := sched.Collect(len(singles), func(i int) workload.MicroResult {
		return workload.RunMicro(workload.MicroConfig{
			Base: o.Base, Mode: workload.Safe, Core: singles[i], Placement: mach.PlaceCrossSocket,
			PTEs: 10, Iterations: iters, Warmup: 5, Runs: runs, Seed: o.seed(),
		})
	})
	base := results[0]
	for i, cc := range singles {
		r := results[i]
		tab.AddRow(cc.String(),
			r.Initiator.String(), report.Pct(stats.Reduction(base.Initiator.Mean, r.Initiator.Mean)),
			r.Responder.String(), report.Pct(stats.Reduction(base.Responder.Mean, r.Responder.Mean)))
	}
	return tab
}

// ablationEarlyAckSuppression compares madvise-triggered shootdowns (early
// ack allowed) with munmap-triggered ones (page tables freed, early ack
// suppressed) under the same config.
func ablationEarlyAckSuppression(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Ablation — early-ack suppression when page tables are freed",
		Header: []string{"workload", "early acks", "late acks", "suppressions"},
	}
	for _, kind := range []string{"madvise", "munmap"} {
		earlyAcks, lateAcks, supp := runAckProbe(kind, o)
		tab.AddRow(kind, earlyAcks, lateAcks, supp)
	}
	tab.AddNote("munmap releases page tables, so the initiator instructs responders to ack late (§3.2)")
	return tab
}

func runAckProbe(kind string, o Options) (early, late, suppressed uint64) {
	cfg := core.Config{ConcurrentFlush: true, EarlyAck: true}
	r := workload.RunAckProbe(workload.AckProbeConfig{
		Base: o.Base, Mode: workload.Safe, Core: cfg, UseMunmap: kind == "munmap",
		Iterations: 20, Seed: o.seed(),
	})
	return r.EarlyAcks, r.LateAcks, r.Suppressed
}

// ablationInContextInteraction isolates the §3.4/§3.1 interaction: the
// initiator flushing user PTEs while waiting for the first ack.
func ablationInContextInteraction(o Options) *report.Table {
	iters, runs := microIterations(o)
	tab := &report.Table{
		Title:  "Ablation — in-context flushing with/without the concurrent interaction (safe, 10 PTEs)",
		Header: []string{"config", "initiator cycles", "user PTEs flushed while waiting"},
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"incontext only", core.Config{InContextFlush: true}},
		{"incontext+concurrent", core.Config{InContextFlush: true, ConcurrentFlush: true}},
	}
	for _, c := range cases {
		r, flushed := workload.RunMicroWithStats(workload.MicroConfig{
			Base: o.Base, Mode: workload.Safe, Core: c.cfg, Placement: mach.PlaceCrossSocket,
			PTEs: 10, Iterations: iters, Warmup: 5, Runs: runs, Seed: o.seed(),
		})
		tab.AddRow(c.name, r.Initiator.String(), fmt.Sprint(flushed))
	}
	tab.AddNote("without concurrent flushing the initiator has no ack-wait window, so no user PTEs are flushed eagerly")
	return tab
}
