package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/stats"
	"shootdown/internal/syscalls"
)

// AckProbeConfig drives the early-ack ablation: repeated shootdowns
// triggered either by madvise (tables kept, early ack allowed) or munmap
// (tables freed, early ack suppressed).
type AckProbeConfig struct {
	Base       Template
	Mode       Mode
	Core       core.Config
	UseMunmap  bool
	Iterations int
	Seed       uint64
}

// AckProbeResult reports how the responders acknowledged.
type AckProbeResult struct {
	EarlyAcks, LateAcks uint64
	// Suppressed counts shootdowns whose early ack the initiator had to
	// disable because page tables were freed.
	Suppressed uint64
}

// RunAckProbe executes the probe.
func RunAckProbe(cfg AckProbeConfig) AckProbeResult {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	stop := false
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.SpinUntil(func() bool { return stop }, 2000)
	}}
	w.K.CPU(2).Spawn(responder)
	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(10_000)
		for i := 0; i < cfg.Iterations; i++ {
			v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
				panic(err)
			}
			if cfg.UseMunmap {
				err = syscalls.Munmap(ctx, v.Start, v.Len())
			} else {
				err = syscalls.MadviseDontneed(ctx, v.Start, pg)
				if err == nil {
					err = syscalls.Munmap(ctx, v.Start, v.Len())
					// The munmap after a madvise zap finds no PTEs, so it
					// triggers no shootdown; it just cleans up the VMA.
				}
			}
			if err != nil {
				panic(err)
			}
		}
		stop = true
	}}
	w.K.CPU(0).Spawn(initiator)
	w.Eng.Run()
	s := w.K.SMP.Stats()
	return AckProbeResult{
		EarlyAcks:  s.EarlyAcks,
		LateAcks:   s.LateAcks,
		Suppressed: w.F.Stats().EarlyAckSuppressed,
	}
}

// RunMicroWithStats runs the microbenchmark once (single run) and also
// returns the number of user PTEs the initiator flushed while waiting for
// acks (the §3.4/§3.1 interaction counter).
func RunMicroWithStats(cfg MicroConfig) (MicroResult, uint64) {
	cfg.Runs = 1
	if cfg.Iterations <= 0 {
		cfg.Iterations = 50
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	initMean, respMean := runMicroOn(w, cfg)
	return MicroResult{
		Initiator: stats.Summarize([]float64{initMean}),
		Responder: stats.Summarize([]float64{respMean}),
	}, w.F.Stats().UserPTEsFlushedWhileWaiting
}
