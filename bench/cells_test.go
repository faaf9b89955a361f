package bench

import (
	"fmt"
	"strings"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/workload"
)

// A cell is one simulated machine run (for fracture, one bare TLB run):
// the unit the harness times, checks against its golden line, and reruns
// alone under -cell. Every pass runs a workload's cells back to back.
type cell struct {
	// key names the cell's configuration; it is unique within a workload.
	key string
	run func() outcome
}

// outcome is what a cell's simulation reports.
type outcome struct {
	// fields are the simulated results, rendered deterministically.
	fields string
	// ops is the operation count the per-op metrics divide by: madvise
	// calls (micro), writes (sysbench), events (server), requests
	// (apache), flush rounds (fracture).
	ops float64
	// cycles is the simulated cycles the per-op cycle metric divides:
	// initiator cycles (micro) or makespan. Zero where no time is
	// simulated (fracture).
	cycles float64
	// tlb carries TLB counters for cells that own their TLB instead of
	// booting a machine (fracture); booted cells leave it zero.
	tlb counts
}

// workloads lists the benchmark's workloads in the order the README and
// BENCHMARK.json give them.
var workloads = []string{"micro", "sysbench", "server", "fracture", "checked"}

// cellsFor builds the fixed cell list of a workload. Cell seeds derive
// from seed, so two seeds give two different (but each reproducible)
// inputs wherever the simulation draws random numbers.
func cellsFor(name string, seed uint64) ([]cell, error) {
	var cells []cell
	add := func(key string, run func(s uint64) outcome) {
		s := cellSeed(seed, len(cells))
		cells = append(cells, cell{key: key, run: func() outcome { return run(s) }})
	}
	switch name {
	case "micro":
		microCells(add)
	case "sysbench":
		sysbenchCells(add, []core.Config{core.Baseline(), core.All()}, []int{4, 14, 28}, 2)
	case "server":
		serverCells(add)
	case "fracture":
		fractureCells(add, 400)
	case "checked":
		checkedCells(add)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
	}
	return cells, nil
}

// cellSeed mixes the run seed with the cell index (splitmix64 finalizer),
// so neighbouring cells and neighbouring seeds get unrelated streams.
func cellSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// The two dispatch tiers of the async and scale experiments: concurrent
// flush with early ack, acked synchronously or posted to per-CPU rings.
var (
	syncTier  = core.Config{ConcurrentFlush: true, EarlyAck: true}
	asyncTier = core.Config{ConcurrentFlush: true, EarlyAck: true, AsyncShootdown: true}
)

// microConfigs returns the madvise grid's protocol configs per mode: the
// cumulative optimizations of Figures 5-8, plus the async tier in safe
// mode.
func microConfigs(mode workload.Mode) []core.Config {
	configs := core.CumulativeConfigs(mode == workload.Safe)
	if mode == workload.Safe {
		configs = append(configs, asyncTier)
	}
	return configs
}

// microCells is the Figs 5-8 grid: {safe, unsafe} x configs x placements
// x {1, 10} PTEs x 2 replicas, one booted machine per cell.
func microCells(add func(string, func(uint64) outcome)) {
	for _, mode := range []workload.Mode{workload.Safe, workload.Unsafe} {
		for _, cc := range microConfigs(mode) {
			for _, pl := range mach.Placements() {
				for _, ptes := range []int{1, 10} {
					for rep := 0; rep < 2; rep++ {
						add(fmt.Sprintf("%s/%s/%s/ptes=%d/rep=%d", mode, cc, pl, ptes, rep),
							microRun(mode, cc, pl, ptes))
					}
				}
			}
		}
	}
}

func microRun(mode workload.Mode, cc core.Config, pl mach.Placement, ptes int) func(uint64) outcome {
	const iterations = 60
	return func(seed uint64) outcome {
		r := workload.RunMicro(workload.MicroConfig{
			Mode: mode, Core: cc, Placement: pl, PTEs: ptes,
			Iterations: iterations, Warmup: 5, Runs: 1, Seed: seed,
		})
		return outcome{
			fields: fmt.Sprintf("init=%s resp=%s", fmtFloat(r.Initiator.Mean), fmtFloat(r.Responder.Mean)),
			ops:    iterations,
			cycles: r.Initiator.Mean * iterations,
		}
	}
}

// sysbenchCells is Fig 10's shape in safe mode: configs x thread counts.
func sysbenchCells(add func(string, func(uint64) outcome), configs []core.Config, threads []int, syncs int) {
	for _, cc := range configs {
		for _, t := range threads {
			cc, t := cc, t
			add(fmt.Sprintf("sysbench/%s/threads=%d", cc, t), func(seed uint64) outcome {
				r := workload.RunSysbench(workload.SysbenchConfig{
					Mode: workload.Safe, Core: cc, Threads: t,
					HotPages: 2048, WritesPerSync: 64, Syncs: syncs,
					ComputePerWrite: 8000, Seed: seed,
				})
				return outcome{
					fields: fmt.Sprintf("makespan=%d ops=%d", r.Makespan, r.Ops),
					ops:    float64(r.Ops),
					cycles: float64(r.Makespan),
				}
			})
		}
	}
}

// serverCells is the scale sweep's quick shape with a larger connection
// table, at 256 and 512 CPUs under both dispatch tiers.
func serverCells(add func(string, func(uint64) outcome)) {
	for _, n := range []int{256, 512} {
		for _, cc := range []core.Config{syncTier, asyncTier} {
			n, cc := n, cc
			add(fmt.Sprintf("server/cpus=%d/%s", n, cc), func(seed uint64) outcome {
				topo, err := mach.ScaleTopology(n)
				if err != nil {
					panic(err)
				}
				cfg := workload.DefaultServerConfig()
				cfg.Core, cfg.Topo, cfg.Seed = cc, topo, seed
				cfg.TasksPerCPU = 1
				cfg.Connections = 1 << 14
				cfg.EventsPerTask = 6
				cfg.RecycleEvery = 3
				cfg.RemapEvery = 5
				cfg.Recyclers = 8
				r := workload.RunServer(cfg)
				return outcome{
					fields: fmt.Sprintf("makespan=%d events=%d shootdowns=%d icr=%d clusteracks=%d",
						r.Makespan, r.Events, r.Shootdowns, r.ICRWrites, r.ClusterAckStores),
					ops:    float64(r.Events),
					cycles: float64(r.Makespan),
				}
			})
		}
	}
}

// fractureCells is Table 4: nested {4K, 2M} guest x {4K, 2M} host and
// bare metal {4K, 2M}, each after full and after selective flushes. It
// has no random input, so every seed runs the same cells.
func fractureCells(add func(string, func(uint64) outcome), rounds int) {
	type combo struct {
		vm          bool
		guest, host pagetable.Size
	}
	combos := []combo{
		{true, pagetable.Size4K, pagetable.Size4K},
		{true, pagetable.Size2M, pagetable.Size4K},
		{true, pagetable.Size4K, pagetable.Size2M},
		{true, pagetable.Size2M, pagetable.Size2M},
		{false, pagetable.Size4K, 0},
		{false, pagetable.Size2M, 0},
	}
	for _, c := range combos {
		for _, full := range []bool{true, false} {
			c, full := c, full
			setup := "bare"
			if c.vm {
				setup = "vm/host=" + c.host.String()
			}
			flush := "selective"
			if full {
				flush = "full"
			}
			add(fmt.Sprintf("fracture/%s/guest=%s/%s", setup, c.guest, flush), func(uint64) outcome {
				r, err := workload.RunFracture(workload.FractureConfig{
					VM: c.vm, GuestSize: c.guest, HostSize: c.host,
					BufferBytes: 4 << 20, Iterations: rounds, FullFlush: full,
				})
				if err != nil {
					panic(err)
				}
				// Every round flushes once, then looks up each entry of
				// the working set once; lookups that miss refill.
				lookups := uint64(rounds) * uint64(r.EntriesPerIteration)
				var tc counts
				tc[tlbMisses] = r.Misses
				tc[tlbHits] = lookups - r.Misses
				tc[tlbFractureEscalations] = r.Escalations
				if full {
					tc[tlbFullFlushes] = uint64(rounds)
				} else {
					tc[tlbSelectiveFlushes] = uint64(rounds)
				}
				return outcome{
					fields: fmt.Sprintf("misses=%d escalations=%d entries=%d", r.Misses, r.Escalations, r.EntriesPerIteration),
					ops:    float64(rounds),
					tlb:    tc,
				}
			})
		}
	}
}

// checkedCells is a micro, sysbench and apache subset; the harness runs
// it with the coherence sanitizer and the race model attached to every
// machine it boots.
func checkedCells(add func(string, func(uint64) outcome)) {
	for _, cc := range []core.Config{core.Baseline(), core.AllGeneral(), asyncTier} {
		for _, pl := range mach.Placements() {
			for _, ptes := range []int{1, 10} {
				add(fmt.Sprintf("micro/%s/%s/ptes=%d", cc, pl, ptes), microRun(workload.Safe, cc, pl, ptes))
			}
		}
	}
	sysbenchCells(add, []core.Config{core.Baseline(), core.All()}, []int{4, 14}, 4)
	for _, cc := range []core.Config{core.Baseline(), core.All()} {
		for _, cores := range []int{4, 8, 11} {
			cc, cores := cc, cores
			add(fmt.Sprintf("apache/%s/cores=%d", cc, cores), func(seed uint64) outcome {
				r := workload.RunApache(workload.ApacheConfig{
					Mode: workload.Safe, Core: cc, Cores: cores, RequestsPerCore: 20,
					FilePages: 3, ParseCycles: 52000, SendCycles: 40000,
					OfferedInterArrival: 13333, Seed: seed,
				})
				return outcome{
					fields: fmt.Sprintf("makespan=%d requests=%d", r.Makespan, r.Requests),
					ops:    float64(r.Requests),
					cycles: float64(r.Makespan),
				}
			})
		}
	}
}
