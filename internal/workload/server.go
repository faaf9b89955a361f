package workload

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/syscalls"
)

// ServerConfig parameterizes the many-core connection-server workload:
// an event-driven server (wrk/Apache mpm_event at datacenter width)
// whose worker tasks each multiplex a shard of a very large connection
// table over a small per-task buffer arena. Connections are data, not
// processes — the paper-scale machine runs a few thousand tasks serving
// up to a million connections — so the simulated load is shootdown
// traffic (buffer recycling via MADV_DONTNEED and mapping churn via
// munmap), not task-switch overhead.
type ServerConfig struct {
	Base Template
	Mode Mode
	Core core.Config
	// Topo, when nonzero, replaces Base's topology: the scale sweep and
	// the benchmark set each cell's machine width here.
	Topo mach.Topology
	// TasksPerCPU workers are spawned on every logical CPU.
	TasksPerCPU int
	// Connections is the machine-wide connection-table size, sharded
	// evenly over the tasks.
	Connections int
	// EventsPerTask is how many connection events each task serves.
	EventsPerTask int
	// ArenaPages is each task's buffer arena; connection buffers are
	// multiplexed onto it modulo its size.
	ArenaPages int
	// RecycleEvery recycles a task's arena (MADV_DONTNEED on half of
	// it) after this many events — the flush-storm source.
	RecycleEvery int
	// RemapEvery tears the arena down entirely (munmap + fresh mmap,
	// the page-table-free shootdown path) after this many events.
	RemapEvery int
	// Recyclers caps how many tasks perform the recycle/remap churn
	// (spread evenly across the task set); 0 means every task does.
	// Quick cells use it to keep broadcast count independent of machine
	// width: every CPU still serves — so the shared space stays active
	// machine-wide and each flush is a full-width storm — but the storm
	// count does not itself grow with width (which would make wide
	// cells O(width^2) and uselessly slow for CI).
	Recyclers int
	// ProcessCycles is the user-mode work per event.
	ProcessCycles uint64
	Seed          uint64
}

// DefaultServerConfig returns the full-scale configuration: a million
// connections multiplexed by two tasks per CPU. Experiments scale
// Connections and EventsPerTask down in quick mode.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Mode: Safe, TasksPerCPU: 2, Connections: 1 << 20,
		EventsPerTask: 64, ArenaPages: 16,
		RecycleEvery: 16, RemapEvery: 48,
		ProcessCycles: 3000, Seed: 1,
	}
}

// ServerResult reports the served load and the shootdown traffic it
// generated.
type ServerResult struct {
	// Makespan is cycles from synchronized start to the last event.
	Makespan uint64
	// Tasks and Connections echo the effective fan-out.
	Tasks, Connections int
	// Events is the total connection events served.
	Events int
	// Shootdowns is the number of remote-flush operations the serving
	// triggered; ICRWrites counts the cluster-fanned ICR stores those
	// cost on the wire.
	Shootdowns, ICRWrites uint64
	// ClusterAckStores counts acks aggregated onto shared per-cluster
	// lines (0 on machines of 128 CPUs or fewer).
	ClusterAckStores uint64
}

// EventsPerMCycle is the headline throughput figure.
func (r ServerResult) EventsPerMCycle() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.Events) / (float64(r.Makespan) / 1e6)
}

// conn is one simulated connection: pure data multiplexed by a task.
type conn struct {
	page uint32 // arena page the connection's buffer maps to
	hits uint32
}

// RunServer executes one connection-server run.
func RunServer(cfg ServerConfig) ServerResult {
	if cfg.TasksPerCPU <= 0 {
		cfg.TasksPerCPU = 1
	}
	if cfg.ArenaPages <= 0 {
		cfg.ArenaPages = 16
	}
	if cfg.RecycleEvery <= 0 {
		cfg.RecycleEvery = 16
	}
	if cfg.RemapEvery <= 0 {
		cfg.RemapEvery = 48
	}
	if cfg.EventsPerTask <= 0 {
		cfg.EventsPerTask = 16
	}
	// ProcessCycles must be positive: the overtime phase spins with a
	// 2*ProcessCycles quantum, and SpinUntil rejects a zero quantum.
	if cfg.ProcessCycles == 0 {
		cfg.ProcessCycles = 3000
	}
	base := cfg.Base
	if cfg.Topo != (mach.Topology{}) {
		base.Topo = cfg.Topo
	}
	w := base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()

	numCPUs := w.K.Topo.NumCPUs()
	tasks := numCPUs * cfg.TasksPerCPU
	if cfg.Connections < tasks {
		cfg.Connections = tasks
	}
	// The connection table: data only. Buffers hash onto arena pages;
	// hit counts double as a cheap checksum that every event landed.
	table := make([]conn, cfg.Connections)
	for i := range table {
		table[i].page = uint32(i % cfg.ArenaPages)
	}
	perTask := cfg.Connections / tasks

	// All tasks serve shards of one address space, so every recycle
	// shoots down every CPU the space is active on — the flush-storm
	// shape the wide topologies exist to measure.
	as := w.K.NewAddressSpace()

	// Tasks run to completion on their CPU (the kernel model does not
	// preempt), so TasksPerCPU > 1 means waves: a synchronized-start
	// barrier across ALL tasks would deadlock. Recyclers may, however,
	// safely wait for the first wave (one task per CPU) to come up —
	// those starts depend only on boot, never on a recycler finishing —
	// which guarantees every storm hits a fully active machine instead
	// of racing the rwsem-serialized initial mmaps.
	// recycleStride == 0 means every task recycles (the full-scale
	// shape). With a Recyclers cap the recyclers live in the first wave
	// only, and the other first-wave tasks serve overtime events until
	// the storms are over: a lazy-idling CPU is (correctly) skipped by
	// pickTargets, so a storm only measures machine width if the rest
	// of the machine is still busy serving when it lands.
	recycleStride, recyclerTotal := 0, 0
	if cfg.Recyclers > 0 {
		recycleStride = numCPUs / cfg.Recyclers
		if recycleStride < 1 {
			recycleStride = 1
		}
	}
	firstWave := tasks
	if numCPUs < tasks {
		firstWave = numCPUs
	}
	startedTasks, recyclersDone, finished, served := 0, 0, 0, 0
	var startedAt, finishedAt uint64
	for ti := 0; ti < tasks; ti++ {
		ti := ti
		recycles := recycleStride == 0 || (ti < numCPUs && ti%recycleStride == 0)
		if recycles && recycleStride != 0 {
			recyclerTotal++
		}
		cpu := mach.CPU(ti % numCPUs)
		shard := table[ti*perTask : (ti+1)*perTask]
		t := &kernel.Task{Name: fmt.Sprintf("srv%d", ti), MM: as, Fn: func(ctx *kernel.Ctx) {
			arena, err := syscalls.MMap(ctx, uint64(cfg.ArenaPages)*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			if startedTasks == 0 {
				startedAt = uint64(ctx.P.Now())
			}
			startedTasks++
			if recycles {
				ctx.SpinUntil(func() bool { return startedTasks >= firstWave }, 500)
			}
			for ev := 0; ev < cfg.EventsPerTask; ev++ {
				c := &shard[(ev*7+ti)%len(shard)]
				c.hits++
				if err := ctx.Touch(arena.Start+uint64(c.page)*pg, mm.AccessWrite); err != nil {
					panic(err)
				}
				ctx.UserRun(cfg.ProcessCycles)
				if recycles && (ev+1)%cfg.RecycleEvery == 0 {
					if err := syscalls.MadviseDontneed(ctx, arena.Start, uint64(cfg.ArenaPages/2)*pg); err != nil {
						panic(err)
					}
				}
				if recycles && (ev+1)%cfg.RemapEvery == 0 {
					if err := syscalls.Munmap(ctx, arena.Start, arena.Len()); err != nil {
						panic(err)
					}
					if arena, err = syscalls.MMap(ctx, uint64(cfg.ArenaPages)*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
						panic(err)
					}
				}
				served++
			}
			if recycleStride != 0 {
				if recycles {
					recyclersDone++
				} else {
					// Overtime: keep the CPU serving (and therefore a
					// shootdown target) until every storm has landed.
					ctx.SpinUntil(func() bool { return recyclersDone >= recyclerTotal }, 2*cfg.ProcessCycles)
				}
			}
			finished++
			if finished == tasks {
				finishedAt = uint64(ctx.P.Now())
			}
		}}
		w.K.CPU(cpu).Spawn(t)
	}
	w.Eng.Run()

	fstats := w.F.Stats()
	return ServerResult{
		Makespan:         finishedAt - startedAt,
		Tasks:            tasks,
		Connections:      cfg.Connections,
		Events:           served,
		Shootdowns:       fstats.Shootdowns + fstats.AsyncShootdowns,
		ICRWrites:        w.K.Bus.Stats().ICRWrites,
		ClusterAckStores: w.K.SMP.Stats().ClusterAckStores,
	}
}
