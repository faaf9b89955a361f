package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sched"
	"shootdown/internal/stats"
	"shootdown/internal/syscalls"
)

const pg = pagetable.PageSize4K

// MicroConfig parameterizes the madvise(DONTNEED) shootdown
// microbenchmark (paper §5.1): an initiator thread mmaps an anonymous
// region, touches PTEs pages, and madvises them away, while a responder
// thread busy-waits on another CPU of the chosen placement.
type MicroConfig struct {
	Base      Template
	Mode      Mode
	Core      core.Config
	Placement mach.Placement
	// PTEs is the number of pages flushed per shootdown (1 or 10 in the
	// paper).
	PTEs int
	// Iterations is the number of timed madvise calls per run (the paper
	// runs 100k; the deterministic simulator needs far fewer).
	Iterations int
	// Warmup iterations are executed but not timed.
	Warmup int
	// Runs is the number of independent repetitions (paper: 5).
	Runs int
	// Seed derives each run's seed.
	Seed uint64
}

// DefaultMicroConfig returns the paper's shape with simulation-sized
// iteration counts.
func DefaultMicroConfig() MicroConfig {
	return MicroConfig{
		Mode: Safe, Placement: mach.PlaceSameSocket,
		PTEs: 1, Iterations: 50, Warmup: 5, Runs: 5, Seed: 1,
	}
}

// MicroResult reports initiator and responder cycles, summarized over
// runs (mean of per-iteration means; std across runs, as in the paper).
type MicroResult struct {
	Initiator stats.Summary
	Responder stats.Summary
}

// RunMicro executes the microbenchmark.
func RunMicro(cfg MicroConfig) MicroResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 50
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5
	}
	if cfg.PTEs <= 0 {
		cfg.PTEs = 1
	}
	type pair struct{ im, rm float64 }
	// Each run is an independent world with its own derived seed, so the
	// repetitions fan out across the scheduler pool; Collect reassembles
	// them in run order, keeping the summary bit-identical to a serial loop.
	runs := sched.Collect(cfg.Runs, func(run int) pair {
		im, rm := runMicroOnce(cfg, cfg.Seed+uint64(run)*7919)
		return pair{im, rm}
	})
	initMeans := make([]float64, len(runs))
	respMeans := make([]float64, len(runs))
	for i, r := range runs {
		initMeans[i] = r.im
		respMeans[i] = r.rm
	}
	return MicroResult{
		Initiator: stats.Summarize(initMeans),
		Responder: stats.Summarize(respMeans),
	}
}

func runMicroOnce(cfg MicroConfig, seed uint64) (initMean, respMean float64) {
	w := cfg.Base.boot(cfg.Mode, cfg.Core, seed)
	defer w.Close()
	return runMicroOn(w, cfg)
}

// runMicroOn executes the benchmark body on an already-booted world.
func runMicroOn(w *World, cfg MicroConfig) (initMean, respMean float64) {
	as := w.K.NewAddressSpace()
	initCPU := mach.CPU(0)
	respCPU := w.K.Topo.ResponderFor(initCPU, cfg.Placement)

	stop := false
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(2000)
		}
	}}
	w.K.CPU(respCPU).Spawn(responder)

	var initSamples []float64
	var respTotal float64
	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(10_000) // settle: responder running, both CPUs active
		v, err := syscalls.MMap(ctx, uint64(cfg.PTEs)*pg*2, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		rcpu := w.K.CPU(respCPU)
		total := cfg.Warmup + cfg.Iterations
		for it := 0; it < total; it++ {
			if it == cfg.Warmup {
				// Measurement window opens: the responder has no IRQ in
				// flight here (the previous shootdown completed and ample
				// cycles passed during the touch phase).
				rcpu.ResetCounters()
			}
			// Touch the pages to trigger their allocation.
			for i := 0; i < cfg.PTEs; i++ {
				if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
					panic(err)
				}
			}
			start := ctx.P.Now()
			if err := syscalls.MadviseDontneed(ctx, v.Start, uint64(cfg.PTEs)*pg); err != nil {
				panic(err)
			}
			if it >= cfg.Warmup {
				initSamples = append(initSamples, float64(ctx.P.Now()-start))
			}
		}
		// Let the tail IRQ on the responder drain, then close the window.
		ctx.UserRun(20_000)
		respTotal = float64(rcpu.Interrupted)
		stop = true
	}}
	w.K.CPU(initCPU).Spawn(initiator)
	w.Eng.Run()
	return stats.Summarize(initSamples).Mean, respTotal / float64(cfg.Iterations)
}
