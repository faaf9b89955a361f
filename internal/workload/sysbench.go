package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

// SysbenchConfig parameterizes the Sysbench-style random-write benchmark
// (paper §5.2, Figure 10): worker threads randomly write a shared
// memory-mapped file backed by emulated persistent memory and periodically
// call fdatasync, whose writeback write-protects the dirty pages and
// triggers TLB shootdowns to every thread of the process.
type SysbenchConfig struct {
	Base Template
	Mode Mode
	Core core.Config
	// Threads is the worker count; all are pinned to one NUMA node, as in
	// the paper.
	Threads int
	// HotPages is the size of the actively written region in 4 KiB pages.
	// The file itself is larger; the hot region models the page-cache-warm
	// working set of a long-running benchmark.
	HotPages int
	// WritesPerSync is the number of random writes between fdatasyncs.
	WritesPerSync int
	// Syncs is the number of fdatasync rounds each thread performs.
	Syncs int
	// ComputePerWrite is user-mode work accompanying each write, cycles.
	ComputePerWrite uint64
	Seed            uint64
}

// DefaultSysbenchConfig returns simulation-sized defaults.
func DefaultSysbenchConfig() SysbenchConfig {
	return SysbenchConfig{
		Mode: Safe, Threads: 4,
		HotPages: 2048, WritesPerSync: 64, Syncs: 8,
		ComputePerWrite: 8000, Seed: 1,
	}
}

// SysbenchResult reports the measured makespan and derived throughput.
type SysbenchResult struct {
	// Makespan is the cycles from the synchronized start until the last
	// worker finished.
	Makespan uint64
	// Ops is the total number of writes performed.
	Ops int
}

// OpsPerSecond converts the result to a rate under the machine frequency.
func (r SysbenchResult) OpsPerSecond(freqHz uint64) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Makespan) / float64(freqHz))
}

// RunSysbench executes one benchmark run.
func RunSysbench(cfg SysbenchConfig) SysbenchResult {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.HotPages <= 0 {
		cfg.HotPages = 2048
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	// A 3 GiB file as in the paper; only the hot region is ever touched.
	file := w.K.NewFile("pmem-db", 3<<30)
	socket0 := w.K.Topo.CPUsOfSocket(0)
	if cfg.Threads > len(socket0) {
		cfg.Threads = len(socket0)
	}

	var region *mm.VMA
	ready := 0
	var startedAt, finishedAt sim.Time
	finished := 0

	// Thread 0 additionally prepares the mapping and pre-faults the hot
	// region (the benchmark's warmup, outside the measured window).
	prep := func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, uint64(cfg.HotPages)*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < cfg.HotPages; i++ {
			if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
				panic(err)
			}
		}
		if err := syscalls.Fdatasync(ctx, file); err != nil {
			panic(err)
		}
		region = v
	}

	body := func(ctx *kernel.Ctx, rng *sim.Rand) {
		for s := 0; s < cfg.Syncs; s++ {
			for i := 0; i < cfg.WritesPerSync; i++ {
				va := region.Start + rng.Uint64n(uint64(cfg.HotPages))*pg
				if err := ctx.Touch(va, mm.AccessWrite); err != nil {
					panic(err)
				}
				ctx.UserRun(cfg.ComputePerWrite)
			}
			if err := syscalls.Fdatasync(ctx, file); err != nil {
				panic(err)
			}
		}
	}

	for i := 0; i < cfg.Threads; i++ {
		i := i
		rng := sim.NewRand(cfg.Seed*2654435761 + uint64(i))
		task := &kernel.Task{Name: "sysbench", MM: as, Fn: func(ctx *kernel.Ctx) {
			if i == 0 {
				prep(ctx)
			}
			// Synchronized start: wait for the mapping and all peers.
			ready++
			ctx.SpinUntil(func() bool { return ready >= cfg.Threads && region != nil }, 500)
			if startedAt == 0 {
				startedAt = ctx.P.Now()
			}
			body(ctx, rng)
			finished++
			if finished == cfg.Threads {
				finishedAt = ctx.P.Now()
			}
		}}
		w.K.CPU(socket0[i]).Spawn(task)
	}
	w.Eng.Run()
	return SysbenchResult{
		Makespan: uint64(finishedAt - startedAt),
		Ops:      cfg.Threads * cfg.Syncs * cfg.WritesPerSync,
	}
}
