// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) and the page-fracturing study (§7): Figures 5-11 and
// Tables 3-4. Each experiment returns report.Tables whose rows mirror the
// paper's presentation: latencies per cumulative optimization and
// placement for the microbenchmarks, speedup series for Sysbench and
// Apache, and dTLB-miss counts for the fracturing study.
package experiments

import (
	"fmt"
	"sort"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/stats"
	"shootdown/internal/workload"
)

// Options tune experiment scale and name the machine every cell boots.
type Options struct {
	// Quick shrinks iteration counts and sweep ranges for fast runs
	// (benchmarks and CI); the full setting matches the paper's sweeps.
	Quick bool
	// Seed derives all run seeds.
	Seed uint64
	// Base is the machine template every cell boots: the fault schedule,
	// topology and dispatch-tier override that tlbsim's and tlbcheck's
	// -faults, -topo and -tlbmode flags fill. The faults and async sweeps
	// replace its schedule per cell, and the scale sweep its topology.
	// The zero Template is the paper's unfaulted testbed.
	Base workload.Template
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Runner produces the tables of one experiment.
type Runner func(Options) []*report.Table

// Registry maps experiment ids (fig5..fig11, table3, table4, ablation) to
// runners, for the CLI and benchmarks.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig5":     Fig5,
		"fig6":     Fig6,
		"fig7":     Fig7,
		"fig8":     Fig8,
		"table3":   Table3,
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"table4":   Table4,
		"ablation": Ablations,
		// Beyond the paper: comparative baselines and §6/§7 ideas built
		// out (see EXPERIMENTS.md).
		"extensions": Extensions,
		"daemons":    Daemons,
		"faults":     FaultSweep,
		"async":      AsyncSweep,
		"scale":      ScaleSweep,
	}
}

// Names returns the registry keys in stable order.
func Names() []string {
	var names []string
	for n := range Registry() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- Figures 5-8: madvise microbenchmark ---

// Fig5 is safe mode, 1 PTE.
func Fig5(o Options) []*report.Table { return microFigure(o, workload.Safe, 1, "Figure 5") }

// Fig6 is safe mode, 10 PTEs.
func Fig6(o Options) []*report.Table { return microFigure(o, workload.Safe, 10, "Figure 6") }

// Fig7 is unsafe mode, 1 PTE (no in-context bar: there is no PTI).
func Fig7(o Options) []*report.Table { return microFigure(o, workload.Unsafe, 1, "Figure 7") }

// Fig8 is unsafe mode, 10 PTEs.
func Fig8(o Options) []*report.Table { return microFigure(o, workload.Unsafe, 10, "Figure 8") }

func microIterations(o Options) (iters, runs int) {
	if o.Quick {
		return 15, 2
	}
	return 60, 5
}

func microFigure(o Options, mode workload.Mode, ptes int, title string) []*report.Table {
	iters, runs := microIterations(o)
	configs := core.CumulativeConfigs(mode == workload.Safe)

	mk := func(side string) *report.Table {
		return &report.Table{
			Title: fmt.Sprintf("%s (%s mode, flush %d PTE%s) — %s cycles",
				title, mode, ptes, plural(ptes), side),
			Header: append([]string{"config"}, placementCols()...),
		}
	}
	initTab, respTab := mk("initiator"), mk("responder")

	// Every (config, placement) cell is an independent simulation; fan them
	// all out and assemble rows from the index-ordered results, so the
	// rendered table is byte-identical at any worker count.
	placements := mach.Placements()
	results := sched.Collect(len(configs)*len(placements), func(i int) workload.MicroResult {
		cc, pl := configs[i/len(placements)], placements[i%len(placements)]
		return workload.RunMicro(workload.MicroConfig{
			Base: o.Base, Mode: mode, Core: cc, Placement: pl, PTEs: ptes,
			Iterations: iters, Warmup: 5, Runs: runs, Seed: o.seed(),
		})
	})
	type cell struct{ init, resp stats.Summary }
	base := map[mach.Placement]cell{}
	for ci, cc := range configs {
		initRow := []any{cc.String()}
		respRow := []any{cc.String()}
		for pi, pl := range placements {
			r := results[ci*len(placements)+pi]
			if ci == 0 {
				base[pl] = cell{r.Initiator, r.Responder}
			}
			initRow = append(initRow, fmtLatency(r.Initiator, base[pl].init))
			respRow = append(respRow, fmtLatency(r.Responder, base[pl].resp))
		}
		initTab.Rows = append(initTab.Rows, toStrings(initRow))
		respTab.Rows = append(respTab.Rows, toStrings(respRow))
	}
	note := fmt.Sprintf("%d timed iterations x %d runs; cells are cycles (mean ± std across runs) and reduction vs baseline", iters, runs)
	initTab.AddNote("%s", note)
	respTab.AddNote("%s", note)
	return []*report.Table{initTab, respTab}
}

func placementCols() []string {
	var out []string
	for _, p := range mach.Placements() {
		out = append(out, p.String())
	}
	return out
}

func fmtLatency(s, base stats.Summary) string {
	red := stats.Reduction(base.Mean, s.Mean)
	return fmt.Sprintf("%s (-%s)", s.String(), report.Pct(red))
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func toStrings(cells []any) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c)
	}
	return out
}

// --- Table 3: overall latency reduction, cross socket ---

// Table3 reports the [initiator / responder] latency reduction on
// different sockets after applying all four §3 techniques.
func Table3(o Options) []*report.Table {
	iters, runs := microIterations(o)
	tab := &report.Table{
		Title:  "Table 3 — [initiator / responder] latency reduction, cross socket, all four techniques",
		Header: []string{"PTEs", "safe mode", "unsafe mode"},
	}
	paperVals := map[string][2]string{
		"1":  {"39% / 13%", "39% / 18%"},
		"10": {"58% / 22%", "54% / 14%"},
	}
	// Flatten (PTE count × mode × baseline/all-techniques) into one fan-out:
	// index i/4 picks the PTE row, (i/2)%2 the mode, i%2 base vs all.
	ptesList := []int{1, 10}
	modes := []workload.Mode{workload.Safe, workload.Unsafe}
	results := sched.Collect(len(ptesList)*len(modes)*2, func(i int) workload.MicroResult {
		mode := modes[(i/2)%len(modes)]
		configs := core.CumulativeConfigs(mode == workload.Safe)
		cc := configs[0]
		if i%2 == 1 {
			cc = configs[len(configs)-1]
		}
		return workload.RunMicro(workload.MicroConfig{
			Base: o.Base, Mode: mode, Core: cc, Placement: mach.PlaceCrossSocket,
			PTEs: ptesList[i/4], Iterations: iters, Warmup: 5, Runs: runs, Seed: o.seed(),
		})
	})
	for pi, ptes := range ptesList {
		row := []string{fmt.Sprint(ptes)}
		for mi := range modes {
			base := results[(pi*len(modes)+mi)*2]
			all := results[(pi*len(modes)+mi)*2+1]
			row = append(row, fmt.Sprintf("%s / %s",
				report.Pct(stats.Reduction(base.Initiator.Mean, all.Initiator.Mean)),
				report.Pct(stats.Reduction(base.Responder.Mean, all.Responder.Mean))))
		}
		tab.Rows = append(tab.Rows, row)
		pv := paperVals[fmt.Sprint(ptes)]
		tab.AddNote("paper (row %d PTEs): safe %s, unsafe %s", ptes, pv[0], pv[1])
	}
	return []*report.Table{tab}
}

// --- Figure 9: CoW microbenchmark ---

// Fig9 measures the visible time of a write that triggers a CoW fault:
// baseline, all §3 optimizations, then +CoW-avoidance.
func Fig9(o Options) []*report.Table {
	pages, runs := 64, 5
	if o.Quick {
		pages, runs = 24, 2
	}
	tab := &report.Table{
		Title:  "Figure 9 — CoW write-fault latency (cycles)",
		Header: []string{"mode", "baseline", "all (§3)", "all+cow", "cow saving"},
	}
	modes := []workload.Mode{workload.Safe, workload.Unsafe}
	cfgsFor := func(mode workload.Mode) [3]core.Config {
		allGeneral := core.AllGeneral()
		if mode == workload.Unsafe {
			allGeneral.InContextFlush = false
		}
		withCow := allGeneral
		withCow.AvoidCoWFlush = true
		return [3]core.Config{core.Baseline(), allGeneral, withCow}
	}
	// Six independent cells (mode × {baseline, all, all+cow}); fan out.
	results := sched.Collect(len(modes)*3, func(i int) stats.Summary {
		mode := modes[i/3]
		return workload.RunCoW(workload.CoWConfig{
			Base: o.Base, Mode: mode, Core: cfgsFor(mode)[i%3], Pages: pages, Runs: runs, Seed: o.seed(),
		})
	})
	for mi, mode := range modes {
		base, all, cow := results[mi*3], results[mi*3+1], results[mi*3+2]
		tab.AddRow(mode.String(), base.String(), all.String(), cow.String(),
			fmt.Sprintf("%.0f cycles (%s)", all.Mean-cow.Mean, report.Pct(stats.Reduction(all.Mean, cow.Mean))))
	}
	tab.AddNote("paper: avoiding the CoW flush saves ~130 cycles, about 3%% (safe) and 5%% (unsafe)")
	return []*report.Table{tab}
}

// --- Figure 10: Sysbench ---

// Fig10 sweeps worker threads for the Sysbench-style random-write +
// fdatasync workload, reporting speedup over baseline as optimizations
// accumulate (including userspace-safe batching).
func Fig10(o Options) []*report.Table {
	threads := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28}
	syncs := 6
	if o.Quick {
		threads = []int{1, 2, 4, 8, 14, 28}
		syncs = 4
	}
	var tabs []*report.Table
	for _, mode := range []workload.Mode{workload.Safe, workload.Unsafe} {
		configs := sysbenchConfigs(mode)
		tab := &report.Table{
			Title:  fmt.Sprintf("Figure 10 — Sysbench random write speedup (%s mode)", mode),
			Header: append([]string{"threads"}, configNames(configs)...),
		}
		// One job per (thread count, config) cell, reassembled row-major.
		cells := sched.Collect(len(threads)*len(configs), func(i int) workload.SysbenchResult {
			return runSysbenchAveraged(workload.SysbenchConfig{
				Base: o.Base, Mode: mode, Core: configs[i%len(configs)], Threads: threads[i/len(configs)],
				HotPages: 2048, WritesPerSync: 64, Syncs: syncs,
				ComputePerWrite: 8000, Seed: o.seed(),
			}, o)
		})
		for ti, t := range threads {
			row := []string{fmt.Sprint(t)}
			var baseMakespan uint64
			for ci := range configs {
				r := cells[ti*len(configs)+ci]
				if ci == 0 {
					baseMakespan = r.Makespan
					row = append(row, report.Cycles(float64(r.Makespan)))
					continue
				}
				row = append(row, report.Speedup(stats.Speedup(float64(baseMakespan), float64(r.Makespan))))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tab.AddNote("first column under 'baseline' is absolute makespan cycles; other cells are speedup vs baseline")
		tabs = append(tabs, tab)
	}
	return tabs
}

func sysbenchConfigs(mode workload.Mode) []core.Config {
	configs := core.CumulativeConfigs(mode == workload.Safe)
	last := configs[len(configs)-1]
	last.UserspaceBatching = true
	return append(configs, last)
}

func configNames(configs []core.Config) []string {
	out := make([]string, len(configs))
	for i, c := range configs {
		out[i] = c.String()
	}
	return out
}

// --- Figure 11: Apache ---

// Fig11 sweeps server cores for the Apache-style mmap/send/munmap
// workload, reporting speedup over baseline per cumulative optimization.
func Fig11(o Options) []*report.Table {
	cores := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	reqs := 80
	if o.Quick {
		cores = []int{1, 2, 4, 8, 11}
		reqs = 40
	}
	var tabs []*report.Table
	for _, mode := range []workload.Mode{workload.Safe, workload.Unsafe} {
		configs := sysbenchConfigs(mode) // same cumulative list incl. batching
		tab := &report.Table{
			Title:  fmt.Sprintf("Figure 11 — Apache throughput speedup (%s mode)", mode),
			Header: append([]string{"cores", "baseline req/s"}, configNames(configs)[1:]...),
		}
		// One job per (core count, config) cell, reassembled row-major.
		cells := sched.Collect(len(cores)*len(configs), func(i int) workload.ApacheResult {
			return workload.RunApache(workload.ApacheConfig{
				Base: o.Base, Mode: mode, Core: configs[i%len(configs)], Cores: cores[i/len(configs)],
				RequestsPerCore: reqs,
				FilePages:       3, ParseCycles: 52000, SendCycles: 40000,
				OfferedInterArrival: 13333, Seed: o.seed(),
			})
		})
		for coi, c := range cores {
			row := []string{fmt.Sprint(c)}
			var baseMakespan uint64
			for ci := range configs {
				r := cells[coi*len(configs)+ci]
				if ci == 0 {
					baseMakespan = r.Makespan
					row = append(row, fmt.Sprintf("%.0f", r.RequestsPerSecond(2_000_000_000)))
					continue
				}
				row = append(row, report.Speedup(stats.Speedup(float64(baseMakespan), float64(r.Makespan))))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tab.AddNote("offered load capped at 150k req/s (13333-cycle global inter-arrival at 2 GHz), as with wrk in the paper")
		tabs = append(tabs, tab)
	}
	return tabs
}

// --- Table 4: page fracturing ---

// Table4 counts dTLB misses after full vs selective flushes, bare-metal
// and under nested paging for every guest/host page-size combination.
func Table4(o Options) []*report.Table {
	iters := 400
	if o.Quick {
		iters = 100
	}
	tab := &report.Table{
		Title:  "Table 4 — dTLB misses after a full or selective page flush",
		Header: []string{"setup", "host pg", "guest pg", "full flush", "selective flush", "sel/full"},
	}
	type combo struct {
		vm    bool
		guest pagetable.Size
		host  pagetable.Size
	}
	combos := []combo{
		{true, pagetable.Size4K, pagetable.Size4K},
		{true, pagetable.Size2M, pagetable.Size4K},
		{true, pagetable.Size4K, pagetable.Size2M},
		{true, pagetable.Size2M, pagetable.Size2M},
		{false, pagetable.Size4K, 0},
		{false, pagetable.Size2M, 0},
	}
	// Twelve independent cells: combo i/2, full flush on even indices.
	results := sched.Collect(len(combos)*2, func(i int) workload.FractureResult {
		c := combos[i/2]
		r, err := workload.RunFracture(workload.FractureConfig{
			VM: c.vm, GuestSize: c.guest, HostSize: c.host,
			BufferBytes: 4 << 20, Iterations: iters, FullFlush: i%2 == 0,
		})
		if err != nil {
			panic(err)
		}
		return r
	})
	for i, c := range combos {
		fr, sr := results[i*2], results[i*2+1]
		setup := "VM"
		host := c.host.String()
		if !c.vm {
			setup, host = "bare-metal", "-"
		}
		ratio := float64(sr.Misses) / float64(fr.Misses)
		tab.AddRow(setup, host, c.guest.String(), report.Cycles(float64(fr.Misses)),
			report.Cycles(float64(sr.Misses)), fmt.Sprintf("%.3f", ratio))
	}
	tab.AddNote("guest 2M on host 4K: selective ≈ full — the fracture rule escalates every selective flush (paper: 102M vs 103M)")
	tab.AddNote("all other rows: selective flushes preserve the TLB (paper: 93K/2.9K/2.5K/789/537 vs millions)")
	return []*report.Table{tab}
}

// runSysbenchAveraged runs the Sysbench workload over several seeds and
// returns a result with the mean makespan, damping straggler noise (the
// paper likewise averages five runs).
func runSysbenchAveraged(cfg workload.SysbenchConfig, o Options) workload.SysbenchResult {
	seeds := 3
	if o.Quick {
		seeds = 1
	}
	// Seeds fan out too; when nested under a cell-level Map this degrades
	// to an inline loop once the pool's tokens are taken.
	runs := sched.Collect(seeds, func(s int) workload.SysbenchResult {
		c := cfg
		c.Seed = cfg.Seed + uint64(s)*7919
		return workload.RunSysbench(c)
	})
	var total uint64
	var ops int
	for _, r := range runs {
		total += r.Makespan
		ops = r.Ops
	}
	return workload.SysbenchResult{Makespan: total / uint64(seeds), Ops: ops}
}
