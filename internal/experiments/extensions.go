package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// Extensions runs the beyond-the-paper experiments: the FreeBSD-style
// serialized-shootdown baseline (§3.3), the LATR-style lazy comparator
// with its §2.3.2 safety hazard made visible, the §6 message-carrying-IPI
// hardware model, and the §7 paravirtual fracture hint.
func Extensions(o Options) []*report.Table {
	return []*report.Table{
		extSerialized(o),
		extLazy(o),
		extHWMessage(o),
		extParavirt(o),
		extPCID(o),
	}
}

func extSerialized(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Extension — FreeBSD-style smp_ipi_mtx vs Linux concurrent shootdowns",
		Header: []string{"concurrent initiators", "Linux (cycles)", "serialized (cycles)", "slowdown"},
	}
	iters := 15
	if o.Quick {
		iters = 8
	}
	inits := []int{2, 4, 8}
	// Cell i: initiator count i/2, serialized on odd indices.
	results := sched.Collect(len(inits)*2, func(i int) uint64 {
		return workload.RunContention(workload.ContentionConfig{
			Base: o.Base, Mode: workload.Safe, Core: core.Config{SerializedIPIs: i%2 == 1},
			Initiators: inits[i/2], Iterations: iters, Seed: o.seed(),
		})
	})
	for i, n := range inits {
		linux, bsd := results[i*2], results[i*2+1]
		tab.AddRow(n, report.Cycles(float64(linux)), report.Cycles(float64(bsd)),
			report.Speedup(stats.Speedup(float64(bsd), float64(linux))))
	}
	tab.AddNote("FreeBSD's global mutex allows one shootdown in flight machine-wide (paper §3.3); Linux's protocol runs them concurrently")
	return tab
}

func extLazy(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Extension — LATR-style lazy shootdowns: faster initiator, broken semantics",
		Header: []string{"protocol", "madvise cycles", "remote flushes deferred", "stale window observable"},
	}
	probes := sched.Collect(2, func(i int) workload.LazyProbeResult {
		cfg := core.Baseline()
		if i == 1 {
			cfg = core.Config{LazyRemote: true}
		}
		return workload.RunLazyProbe(o.Base, workload.Safe, cfg, o.seed())
	})
	sync, lazy := probes[0], probes[1]
	tab.AddRow("synchronous (paper/Linux)", report.Cycles(float64(sync.MadviseCycles)), sync.Deferred, sync.StaleWindow)
	tab.AddRow("lazy (LATR-style)", report.Cycles(float64(lazy.MadviseCycles)), lazy.Deferred, lazy.StaleWindow)
	tab.AddNote("the lazy protocol lets a thread keep using an unmapped page's stale translation after the syscall returned (§2.3.2's correctness criticism)")
	return tab
}

func extHWMessage(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Extension — §6 'attach a message to the IPI' hardware model",
		Header: []string{"shootdown data path", "initiator cycles", "cacheline transfers"},
	}
	probes := sched.Collect(2, func(i int) workload.HWMessageProbeResult {
		return workload.RunHWMessageProbe(o.Base, i == 1, o.seed())
	})
	sw, hw := probes[0], probes[1]
	tab.AddRow("shared memory (CFD/CSQ/info)", report.Cycles(float64(sw.InitCycles)), sw.Transfers)
	tab.AddRow("carried by the IPI", report.Cycles(float64(hw.InitCycles)), hw.Transfers)
	tab.AddNote("the paper: 'if it were possible to attach a message with a TLB shootdown ... we would have been able to avoid sending additional data through shared memory'")
	return tab
}

func extParavirt(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Extension — §7 paravirtual page-fracturing hint",
		Header: []string{"pages flushed", "no hint (cycles)", "with hint (cycles)", "speedup", "hinted full flushes"},
	}
	pageCounts := []int{4, 8, 16, 32}
	results := sched.Collect(len(pageCounts)*2, func(i int) workload.ParavirtProbeResult {
		return workload.RunParavirtProbe(o.Base, i%2 == 1, pageCounts[i/2], o.seed())
	})
	for i, pages := range pageCounts {
		no, yes := results[i*2], results[i*2+1]
		tab.AddRow(pages, report.Cycles(float64(no.MadviseCycles)), report.Cycles(float64(yes.MadviseCycles)),
			report.Speedup(stats.Speedup(float64(no.MadviseCycles), float64(yes.MadviseCycles))),
			fmt.Sprint(yes.FullFlushes))
	}
	tab.AddNote("a guest with fractured translations pays a full flush per INVLPG anyway; the hint collapses N escalations into one CR3 write")
	return tab
}

// Daemons runs the §2.1 flush-source workload: application threads under
// ksmd, khugepaged, kswapd and NUMA-balancer pressure, comparing the
// baseline protocol with the paper's optimizations.
func Daemons(o Options) []*report.Table {
	tab := &report.Table{
		Title:  "Daemons — §2.1 flush sources (KSM, compaction, reclaim, NUMA) under load",
		Header: []string{"config", "app makespan (cycles)", "speedup", "shootdowns", "collapses", "dedups", "reclaims", "numa hints+migrations"},
	}
	rounds := 60
	if o.Quick {
		rounds = 30
	}
	seeds := 3
	if o.Quick {
		seeds = 1
	}
	var baseMakespan uint64
	configs := []core.Config{core.Baseline(), core.AllGeneral(), core.All()}
	// One job per (config, seed); config i/seeds so a config's seed runs
	// stay adjacent and the per-config mean reduces over a contiguous span.
	cells := sched.Collect(len(configs)*seeds, func(i int) workload.DaemonStormResult {
		return workload.RunDaemonStorm(workload.DaemonStormConfig{
			Base: o.Base, Mode: workload.Safe, Core: configs[i/seeds], AppThreads: 4, Rounds: rounds,
			Seed: o.seed() + uint64(i%seeds)*7919,
		})
	})
	for i, cc := range configs {
		// Average the makespan over seeds to damp scheduling noise; the
		// daemon counters are identical across seeds (same nominations).
		var total uint64
		var r workload.DaemonStormResult
		for sdx := 0; sdx < seeds; sdx++ {
			r = cells[i*seeds+sdx]
			total += r.Makespan
		}
		mean := total / uint64(seeds)
		speed := "1.000x"
		if i == 0 {
			baseMakespan = mean
		} else {
			speed = report.Speedup(stats.Speedup(float64(baseMakespan), float64(mean)))
		}
		tab.AddRow(cc.String(), report.Cycles(float64(mean)), speed, r.Shootdowns,
			r.Khuge.Collapses, r.Ksm.Dedups, r.Kswap.Reclaims,
			fmt.Sprintf("%d+%d", r.Numa.Hints, r.Numa.Migrations))
	}
	tab.AddNote("khugepaged collapses free page tables, so those shootdowns never early-ack (§3.2)")
	tab.AddNote("daemon flushes initiate from kernel threads — a shootdown pattern the syscall benchmarks never produce")
	tab.AddNote("shootdown exposure here is small (~50 per run), so the speedup column mostly reflects daemon/app interference timing within a few percent; this table's value is the per-source flush inventory")
	return []*report.Table{tab}
}

func extPCID(o Options) *report.Table {
	tab := &report.Table{
		Title:  "Extension — PCID value at context switch (§2.1 background)",
		Header: []string{"TLB tagging", "ping-pong makespan (cycles)", "dTLB misses", "speedup"},
	}
	slices, pages := 20, 256
	if o.Quick {
		slices = 8
	}
	probes := sched.Collect(2, func(i int) workload.PCIDProbeResult {
		return workload.RunPCIDProbe(o.Base, i == 1, slices, pages, o.seed())
	})
	with, without := probes[0], probes[1]
	tab.AddRow("no PCID (pre-Westmere)", report.Cycles(float64(without.Makespan)), without.TLBMisses, "1.000x")
	tab.AddRow("PCID", report.Cycles(float64(with.Makespan)), with.TLBMisses,
		report.Speedup(stats.Speedup(float64(without.Makespan), float64(with.Makespan))))
	tab.AddNote("with PCIDs a process's TLB entries survive its neighbour's time slice; without, every CR3 write flushes (§2.1)")
	return tab
}
