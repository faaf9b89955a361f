package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/smp"
	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// asyncTierConfigs returns the sweep's two dispatch tiers: the paper's
// concurrent+early-ack synchronous protocol, and the same protocol with
// dispatch routed through the per-CPU invalidation rings instead of the
// CallMany spin-wait.
func asyncTierConfigs() (syncCfg, asyncCfg core.Config) {
	syncCfg = core.Config{ConcurrentFlush: true, EarlyAck: true}
	asyncCfg = syncCfg
	asyncCfg.AsyncShootdown = true
	return syncCfg, asyncCfg
}

// AsyncSweep ablates the queue-based asynchronous shootdown fabric
// (core.Config.AsyncShootdown, smp/fabric.go) against the synchronous
// concurrent+early-ack tier: the madvise microbenchmark isolates the
// initiator-side win (post-and-return vs spin-for-acks), the Sysbench
// sweep shows it across thread counts on the writeback-heavy workload,
// and the fault sweep proves the tier changes no final state while its
// ring counters expose coalescing, overflow collapse and the watchdog's
// rekick/degrade recovery under injected kick loss.
func AsyncSweep(o Options) []*report.Table {
	return []*report.Table{asyncMicroTable(o), asyncSysbenchTable(o), asyncFaultTable(o)}
}

func asyncMicroTable(o Options) *report.Table {
	iters, runs := microIterations(o)
	syncCfg, asyncCfg := asyncTierConfigs()
	configs := []core.Config{syncCfg, asyncCfg}
	ptes := []int{1, 10}
	placements := mach.Placements()
	tab := &report.Table{
		Title:  "Async fabric — madvise microbenchmark, initiator cycles (safe mode)",
		Header: append([]string{"config", "PTEs"}, placementCols()...),
	}
	// One job per (config, PTE count, placement) cell, reassembled
	// index-ordered so the table is byte-identical at any worker count.
	cells := sched.Collect(len(configs)*len(ptes)*len(placements), func(i int) workload.MicroResult {
		cc := configs[i/(len(ptes)*len(placements))]
		pt := ptes[(i/len(placements))%len(ptes)]
		pl := placements[i%len(placements)]
		return workload.RunMicro(workload.MicroConfig{
			Base: o.Base, Mode: workload.Safe, Core: cc, Placement: pl, PTEs: pt,
			Iterations: iters, Warmup: 5, Runs: runs, Seed: o.seed(),
		})
	})
	for ci, cc := range configs {
		for pi, pt := range ptes {
			row := []any{cc.String(), pt}
			for li := range placements {
				r := cells[(ci*len(ptes)+pi)*len(placements)+li]
				if ci == 0 {
					row = append(row, r.Initiator.String())
					continue
				}
				base := cells[pi*len(placements)+li]
				row = append(row, fmtLatency(r.Initiator, base.Initiator))
			}
			tab.Rows = append(tab.Rows, toStrings(row))
		}
	}
	tab.AddNote("sync rows are absolute initiator cycles (mean ± std); async rows add the reduction vs the sync tier at the same placement")
	tab.AddNote("the initiator's win is structural: it posts to per-CPU rings and returns instead of spinning for acks")
	return tab
}

func asyncSysbenchTable(o Options) *report.Table {
	threads := []int{1, 2, 4, 8, 14, 28}
	syncs := 6
	if o.Quick {
		threads = []int{1, 4, 14}
		syncs = 4
	}
	syncCfg, asyncCfg := asyncTierConfigs()
	configs := []core.Config{syncCfg, asyncCfg}
	tab := &report.Table{
		Title:  "Async fabric — Sysbench random write (safe mode)",
		Header: []string{"threads", "sync makespan", "async makespan", "async speedup"},
	}
	cells := sched.Collect(len(threads)*len(configs), func(i int) workload.SysbenchResult {
		return runSysbenchAveraged(workload.SysbenchConfig{
			Base: o.Base, Mode: workload.Safe, Core: configs[i%len(configs)], Threads: threads[i/len(configs)],
			HotPages: 2048, WritesPerSync: 64, Syncs: syncs,
			ComputePerWrite: 8000, Seed: o.seed(),
		}, o)
	})
	for ti, t := range threads {
		s, a := cells[ti*len(configs)], cells[ti*len(configs)+1]
		tab.AddRow(t, report.Cycles(float64(s.Makespan)), report.Cycles(float64(a.Makespan)),
			report.Speedup(stats.Speedup(float64(s.Makespan), float64(a.Makespan))))
	}
	tab.AddNote("the fdatasync writeback path coalesces its per-page flushes (mm.Coalesce) before flushing, so the fabric sees merged ranges")
	return tab
}

func asyncFaultTable(o Options) *report.Table {
	specNames := []string{"none", "light", "heavy", "drop"}
	scenarios := workload.Scenarios()
	syncAll := core.All()
	asyncAll := syncAll
	asyncAll.AsyncShootdown = true

	type cell struct {
		digest      string
		smp         smp.Stats
		outstanding int
	}
	run := func(cfg core.Config, spec fault.Spec, s workload.Scenario) cell {
		base := o.Base
		base.Faults = spec
		w := workload.MustBoot(workload.Machine{Base: base, Mode: workload.Safe, Core: cfg, Seed: o.seed()})
		defer w.Close()
		spaces := s.Run(w)
		return cell{
			digest:      workload.StateDigest(spaces),
			smp:         w.K.SMP.Stats(),
			outstanding: w.K.SMP.OutstandingBatches(),
		}
	}
	// Cells 0..nScen-1 are the synchronous fault-free reference digests;
	// the rest is the async tier under every preset.
	nSpec, nScen := len(specNames), len(scenarios)
	cells := sched.Collect(nScen+nSpec*nScen, func(i int) cell {
		if i < nScen {
			return run(syncAll, fault.Spec{}, scenarios[i])
		}
		j := i - nScen
		spec, ok := fault.Preset(specNames[j/nScen])
		if !ok {
			panic(fmt.Sprintf("experiments: unknown fault preset %q", specNames[j/nScen]))
		}
		return run(asyncAll, spec, scenarios[j%nScen])
	})

	tab := &report.Table{
		Title:  "Async fabric — fault sweep, digests and ring counters (safe mode, all+async)",
		Header: []string{"faults", "scenario", "digest", "match-sync", "posts", "coalesced", "overflows", "kicks", "elided", "drains", "full-drains", "rekicks", "degrades", "open-batches"},
	}
	for si, specName := range specNames {
		for ci, s := range scenarios {
			c := cells[nScen+si*nScen+ci]
			base := cells[ci]
			match := "yes"
			if c.digest != base.digest {
				match = "NO"
			}
			ss := c.smp
			tab.AddRow(specName, s.Name, c.digest, match,
				ss.AsyncPosts, ss.AsyncCoalesced, ss.AsyncOverflows,
				ss.AsyncKicks, ss.AsyncKicksElided, ss.AsyncDrains, ss.AsyncFullDrains,
				ss.AsyncRekicks, ss.AsyncDegrades, c.outstanding)
		}
	}
	tab.AddNote("match-sync compares each digest against the synchronous all-optimizations tier, fault-free, same scenario and seed: the fabric must never change final memory state")
	tab.AddNote("open-batches must be 0 at quiesce: every posted batch completed (under drops, via the watchdog's rekick/degrade ladder)")
	return tab
}
