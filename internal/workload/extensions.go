package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
	"shootdown/internal/tlb"
)

// This file hosts the probe workloads behind the "extensions" experiment:
// comparative baselines (FreeBSD-style serialized IPIs, LATR-style lazy
// shootdowns) and the paper's discussed-but-unbuilt ideas (§6 hardware
// message IPIs, §7 paravirtual fracture hint).

// ContentionConfig drives concurrent initiators that shoot each other
// down, to compare Linux's concurrent shootdowns against a global
// shootdown mutex.
type ContentionConfig struct {
	Base       Template
	Mode       Mode
	Core       core.Config
	Initiators int
	Iterations int
	Seed       uint64
}

// RunContention returns the makespan of all initiators completing their
// madvise loops.
func RunContention(cfg ContentionConfig) uint64 {
	if cfg.Initiators <= 0 {
		cfg.Initiators = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 15
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	stop := false
	// A responder keeps the mm active everywhere.
	w.K.CPU(mach.CPU(cfg.Initiators * 2)).Spawn(&kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(1000)
		}
	}})
	finished := 0
	var start, end sim.Time
	started := false
	for i := 0; i < cfg.Initiators; i++ {
		w.K.CPU(mach.CPU(i * 2)).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			if !started {
				started = true
				start = ctx.P.Now()
			}
			for it := 0; it < cfg.Iterations; it++ {
				if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
					panic(err)
				}
				if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
					panic(err)
				}
			}
			finished++
			if finished == cfg.Initiators {
				end = ctx.P.Now()
				stop = true
			}
		}})
	}
	w.Eng.Run()
	return uint64(end - start)
}

// LazyProbeResult reports the LATR-comparison measurements.
type LazyProbeResult struct {
	// MadviseCycles is the initiator's syscall latency.
	MadviseCycles uint64
	// StaleWindow reports whether a victim thread could still use its
	// stale translation after the initiator's syscall returned.
	StaleWindow bool
	// Deferred counts remote flushes queued instead of delivered.
	Deferred uint64
}

// RunLazyProbe measures initiator latency and probes the §2.3.2 stale
// window on base under the given config (compare LazyRemote on/off).
func RunLazyProbe(base Template, mode Mode, cfg core.Config, seed uint64) LazyProbeResult {
	w := base.boot(mode, cfg, seed)
	defer w.Close()
	as := w.K.NewAddressSpace()
	var out LazyProbeResult
	var probeVA uint64
	phase := 0
	w.K.CPU(2).Spawn(&kernel.Task{Name: "victim", MM: as, Fn: func(ctx *kernel.Ctx) {
		for probeVA == 0 {
			ctx.UserRun(500)
		}
		if err := ctx.Touch(probeVA, mm.AccessRead); err != nil {
			panic(err)
		}
		phase = 1
		for phase == 1 {
			ctx.UserRun(200)
		}
		_, stillCached := w.K.CPU(2).TLB.Lookup(w.K.PCIDOf(as, true), probeVA)
		before := ctx.P.Now()
		if err := ctx.Touch(probeVA, mm.AccessRead); err != nil {
			panic(err)
		}
		out.StaleWindow = stillCached && uint64(ctx.P.Now()-before) == w.K.Cost.L1Hit
		phase = 3
	}})
	w.K.CPU(0).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			panic(err)
		}
		probeVA = v.Start
		for phase == 0 {
			ctx.UserRun(500)
		}
		start := ctx.P.Now()
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			panic(err)
		}
		out.MadviseCycles = uint64(ctx.P.Now() - start)
		phase = 2
		for phase != 3 {
			ctx.UserRun(500)
		}
	}})
	w.Eng.Run()
	out.Deferred = w.F.Stats().LazyDeferred
	return out
}

// HWMessageProbeResult compares software shootdown data transfer against
// the §6 message-carrying-IPI hardware model.
type HWMessageProbeResult struct {
	InitCycles uint64
	Transfers  uint64
}

// RunHWMessageProbe measures one shootdown's initiator latency and total
// cacheline transfers on a safe-mode base with/without the hardware
// extension.
func RunHWMessageProbe(base Template, hw bool, seed uint64) HWMessageProbeResult {
	w := base.boot(Safe, core.Config{HWMessageIPI: hw}, seed)
	defer w.Close()
	k := w.K
	as := k.NewAddressSpace()
	stop := false
	var out HWMessageProbeResult
	k.CPU(28).Spawn(&kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(1000)
		}
	}})
	k.CPU(0).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(5000)
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 10; i++ {
			if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
				panic(err)
			}
			k.Dir.ResetStats()
			start := ctx.P.Now()
			if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
				panic(err)
			}
			out.InitCycles = uint64(ctx.P.Now() - start)
			out.Transfers = k.Dir.Stats().Transfers()
		}
		stop = true
	}})
	w.Eng.Run()
	return out
}

// ParavirtProbeResult compares a guest's ranged flush with and without the
// §7 fracture hint.
type ParavirtProbeResult struct {
	MadviseCycles uint64
	FullFlushes   uint64
}

// RunParavirtProbe runs a nested-paging guest madvise with fractured
// translations cached, on a safe-mode base.
func RunParavirtProbe(base Template, hint bool, pages int, seed uint64) ParavirtProbeResult {
	w := MustBoot(Machine{Base: base, Mode: Safe, Seed: seed,
		Kernel: kernel.Config{NestedPaging: true, ParavirtFractureHint: hint}})
	defer w.Close()
	k := w.K
	as := k.NewAddressSpace()
	var out ParavirtProbeResult
	k.CPU(0).Spawn(&kernel.Task{Name: "guest", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, uint64(pages)*2*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		// The guest previously touched a hugepage backed by 4K host
		// pages: the TLB carries the fracture mark.
		ctx.CPU.TLB.Fill(as.KernelPCID, tlb.Entry{
			VA: 0x7000_0000, Frame: 1, Size: 0,
			Flags: 0x1, Fractured: true,
		})
		for i := 0; i < pages; i++ {
			if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
				panic(err)
			}
		}
		start := ctx.P.Now()
		if err := syscalls.MadviseDontneed(ctx, v.Start, uint64(pages)*pg); err != nil {
			panic(err)
		}
		out.MadviseCycles = uint64(ctx.P.Now() - start)
	}})
	w.Eng.Run()
	out.FullFlushes = w.F.Stats().ParavirtFullFlushes
	return out
}

// PCIDProbeResult compares context-switch costs with and without PCIDs.
type PCIDProbeResult struct {
	// Makespan covers all time slices of both processes.
	Makespan uint64
	// TLBMisses counts the pinned CPU's translation misses.
	TLBMisses uint64
}

// RunPCIDProbe ping-pongs two processes on one CPU of a safe-mode base,
// each touching a working set per slice (§2.1: PCIDs let the TLB cache
// multiple address spaces, so a process's entries survive its
// neighbour's time slice).
func RunPCIDProbe(base Template, disablePCID bool, slices, pages int, seed uint64) PCIDProbeResult {
	w := MustBoot(Machine{Base: base, Mode: Safe, Seed: seed, Kernel: kernel.Config{DisablePCID: disablePCID}})
	defer w.Close()
	k := w.K

	asA := k.NewAddressSpace()
	asB := k.NewAddressSpace()
	var vaA, vaB uint64
	var start, end sim.Time

	// Pre-create mappings via one setup task per process.
	mkSetup := func(as *mm.AddressSpace, out *uint64) *kernel.Task {
		return &kernel.Task{Name: "setup", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, uint64(pages)*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			for i := 0; i < pages; i++ {
				if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
					panic(err)
				}
			}
			*out = v.Start
		}}
	}
	k.CPU(0).Spawn(mkSetup(asA, &vaA))
	k.CPU(0).Spawn(mkSetup(asB, &vaB))

	// Alternating time slices: A, B, A, B, ... each touches its working
	// set. Spawn order on one CPU serializes them in sequence, modeling
	// round-robin scheduling.
	mkSlice := func(as *mm.AddressSpace, va *uint64, last bool) *kernel.Task {
		return &kernel.Task{Name: "slice", MM: as, Fn: func(ctx *kernel.Ctx) {
			if start == 0 {
				start = ctx.P.Now()
			}
			for i := 0; i < pages; i++ {
				if err := ctx.Touch(*va+uint64(i)*pg, mm.AccessRead); err != nil {
					panic(err)
				}
			}
			ctx.UserRun(2000)
			if last {
				end = ctx.P.Now()
			}
		}}
	}
	for s := 0; s < slices; s++ {
		k.CPU(0).Spawn(mkSlice(asA, &vaA, false))
		k.CPU(0).Spawn(mkSlice(asB, &vaB, s == slices-1))
	}
	w.Eng.Run()
	st := k.CPU(0).TLB.Stats()
	return PCIDProbeResult{Makespan: uint64(end - start), TLBMisses: st.Misses}
}
