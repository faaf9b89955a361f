package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/sched"
	"shootdown/internal/stats"
	"shootdown/internal/syscalls"
)

// CoWConfig parameterizes the copy-on-write microbenchmark (paper §5.1,
// Figure 9): a single thread writes to pages of a private memory-mapped
// file, and the visible time of each write — including the page fault — is
// measured.
type CoWConfig struct {
	Base Template
	Mode Mode
	Core core.Config
	// Pages is the number of CoW events per run.
	Pages int
	// Runs repeats the experiment with different seeds.
	Runs int
	Seed uint64
}

// DefaultCoWConfig returns the paper's shape.
func DefaultCoWConfig() CoWConfig {
	return CoWConfig{Mode: Safe, Pages: 64, Runs: 5, Seed: 1}
}

// RunCoW measures the mean cycles of a write that triggers a CoW fault.
func RunCoW(cfg CoWConfig) stats.Summary {
	if cfg.Pages <= 0 {
		cfg.Pages = 64
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5
	}
	// Independent per-run worlds: fan the repetitions out; assembly by run
	// index keeps the summary identical to a serial loop.
	means := sched.Collect(cfg.Runs, func(run int) float64 {
		return runCoWOnce(cfg, cfg.Seed+uint64(run)*104729)
	})
	return stats.Summarize(means)
}

func runCoWOnce(cfg CoWConfig, seed uint64) float64 {
	w := cfg.Base.boot(cfg.Mode, cfg.Core, seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	file := w.K.NewFile("cow-data", uint64(cfg.Pages)*pg)

	var samples []float64
	task := &kernel.Task{Name: "cow", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, uint64(cfg.Pages)*pg, mm.ProtRead|mm.ProtWrite, mm.FilePrivate, file, 0)
		if err != nil {
			panic(err)
		}
		// Read every page first so each maps the page cache read-only;
		// the subsequent write is then a pure CoW break.
		for i := 0; i < cfg.Pages; i++ {
			if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessRead); err != nil {
				panic(err)
			}
		}
		for i := 0; i < cfg.Pages; i++ {
			start := ctx.P.Now()
			if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
				panic(err)
			}
			samples = append(samples, float64(ctx.P.Now()-start))
		}
	}}
	w.K.CPU(0).Spawn(task)
	w.Eng.Run()
	return stats.Summarize(samples).Mean
}
