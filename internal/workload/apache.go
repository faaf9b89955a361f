package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

// ApacheConfig parameterizes the Apache mpm_event-style benchmark (paper
// §5.3, Figure 11): worker threads of one process serve requests, and each
// request mmaps the served file, touches it, sends it, and munmaps it —
// tearing down mappings on every request and triggering shootdowns to all
// workers. An offered-load cap models the wrk generator's fixed request
// rate.
type ApacheConfig struct {
	Base Template
	Mode Mode
	Core core.Config
	// Cores is the number of server cores (one worker per physical core,
	// as taskset assigns in the paper; 1..11 plotted).
	Cores int
	// RequestsPerCore is the work each worker performs.
	RequestsPerCore int
	// FilePages is the served page count (the paper's responses are under
	// 12 KiB = 3 pages).
	FilePages int
	// ParseCycles / SendCycles are the user-mode request processing costs.
	ParseCycles, SendCycles uint64
	// OfferedInterArrival is the global cycles between generated requests
	// (150k req/s at 2 GHz ≈ 13333 cycles); 0 disables the cap.
	OfferedInterArrival uint64
	Seed                uint64
}

// DefaultApacheConfig returns simulation-sized defaults.
func DefaultApacheConfig() ApacheConfig {
	return ApacheConfig{
		Mode: Safe, Cores: 4, RequestsPerCore: 60, FilePages: 3,
		ParseCycles: 52000, SendCycles: 40000,
		OfferedInterArrival: 13333, Seed: 1,
	}
}

// ApacheResult reports throughput over the measured window.
type ApacheResult struct {
	// Makespan is cycles from synchronized start to last response.
	Makespan uint64
	// Requests is the total served.
	Requests int
}

// RequestsPerSecond converts to a rate at the machine frequency.
func (r ApacheResult) RequestsPerSecond(freqHz uint64) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.Requests) / (float64(r.Makespan) / float64(freqHz))
}

// RunApache executes one benchmark run.
func RunApache(cfg ApacheConfig) ApacheResult {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.FilePages <= 0 {
		cfg.FilePages = 3
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	file := w.K.NewFile("htdocs", uint64(cfg.FilePages)*pg)

	// One worker per physical core of socket 0: logical CPUs 0,2,4,...
	workers := make([]mach.CPU, cfg.Cores)
	for i := range workers {
		workers[i] = mach.CPU(i * w.K.Topo.ThreadsPerCore)
	}

	ready := 0
	finished := 0
	var startedAt, finishedAt sim.Time
	// The load generator's global arrival clock: worker i serving its
	// n-th request may not begin before arrival slot (its global index).
	nextSlot := 0

	for _, cpu := range workers {
		task := &kernel.Task{Name: "worker", MM: as, Fn: func(ctx *kernel.Ctx) {
			ready++
			for ready < len(workers) {
				ctx.UserRun(500)
			}
			if startedAt == 0 {
				startedAt = ctx.P.Now()
			}
			for r := 0; r < cfg.RequestsPerCore; r++ {
				if cfg.OfferedInterArrival > 0 {
					slot := nextSlot
					nextSlot++
					arrival := startedAt + sim.Time(uint64(slot)*cfg.OfferedInterArrival)
					if now := ctx.P.Now(); now < arrival {
						ctx.UserRun(uint64(arrival - now))
					}
				}
				serveRequest(ctx, file, cfg)
			}
			finished++
			if finished == len(workers) {
				finishedAt = ctx.P.Now()
			}
		}}
		w.K.CPU(cpu).Spawn(task)
	}
	w.Eng.Run()
	return ApacheResult{
		Makespan: uint64(finishedAt - startedAt),
		Requests: cfg.Cores * cfg.RequestsPerCore,
	}
}

// serveRequest models one mpm_event request: parse, mmap the file, read
// it, send, munmap (the teardown that shoots down every worker's TLB).
func serveRequest(ctx *kernel.Ctx, file *mm.File, cfg ApacheConfig) {
	ctx.UserRun(cfg.ParseCycles)
	v, err := syscalls.MMap(ctx, uint64(cfg.FilePages)*pg, mm.ProtRead, mm.FileShared, file, 0)
	if err != nil {
		panic(err)
	}
	for i := 0; i < cfg.FilePages; i++ {
		if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessRead); err != nil {
			panic(err)
		}
	}
	ctx.UserRun(cfg.SendCycles)
	if err := syscalls.Munmap(ctx, v.Start, v.Len()); err != nil {
		panic(err)
	}
}
