package core_test

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
	"shootdown/internal/tlb"
)

// newKernelWith builds a kernel with an explicit config (extensions need
// kernel-level flags the shared newWorld helper does not expose).
func newKernelWith(t *testing.T, eng *sim.Engine, kcfg kernel.Config) *kernel.Kernel {
	t.Helper()
	return kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
}

// fracturedEntry returns a TLB entry marked as a fractured translation
// (guest hugepage on 4K host backing).
func fracturedEntry() tlb.Entry {
	return tlb.Entry{
		VA: 0x7000_0000, Frame: 99, Size: pagetable.Size4K,
		Flags: pagetable.Present | pagetable.User, Fractured: true,
	}
}

// --- FreeBSD-style serialized shootdowns (smp_ipi_mtx, §3.3) ---

// TestSerializedIPIsSlowerUnderContention shows why Linux's concurrent
// shootdown design matters: with a global shootdown mutex, two initiators
// flushing simultaneously serialize and the combined makespan grows.
func TestSerializedIPIsSlowerUnderContention(t *testing.T) {
	run := func(serialized bool) sim.Time {
		cfg := core.Config{SerializedIPIs: serialized}
		w := newWorld(t, true, cfg, 21)
		as := w.k.NewAddressSpace()
		stop := false
		// One responder keeps the mm active so every madvise shoots.
		w.k.CPU(4).Spawn(&kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
			for !stop {
				ctx.UserRun(1000)
			}
		}})
		finished := 0
		var endAt sim.Time
		for _, cpu := range []mach.CPU{0, 2} {
			w.k.CPU(cpu).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
				v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 15; i++ {
					ctx.Touch(v.Start, mm.AccessWrite)
					if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
						t.Error(err)
					}
				}
				finished++
				if finished == 2 {
					endAt = ctx.P.Now()
					stop = true
				}
			}})
		}
		w.eng.Run()
		return endAt
	}
	linux := run(false)
	freebsd := run(true)
	if freebsd <= linux {
		t.Fatalf("serialized shootdowns (%d) not slower than concurrent ones (%d)", freebsd, linux)
	}
}

// --- LATR-style lazy shootdowns (§2.3.2) ---

// TestLazyRemoteFasterButUnsafe demonstrates both sides of the paper's
// argument: lazy asynchronous shootdowns make the initiator faster (no
// IPI round trip), but open a window in which another thread can still
// access an unmapped page through its stale translation after the
// munmap-like call has returned — the exact violation (userfaultfd-style
// expectations) the paper describes.
func TestLazyRemoteFasterButUnsafe(t *testing.T) {
	type outcome struct {
		madviseCycles uint64
		staleAccessOK bool
	}
	run := func(lazy bool) outcome {
		cfg := core.Config{LazyRemote: lazy}
		w := newWorld(t, true, cfg, 31)
		as := w.k.NewAddressSpace()
		var out outcome
		var probeVA uint64
		phase := 0

		w.k.CPU(2).Spawn(&kernel.Task{Name: "victim", MM: as, Fn: func(ctx *kernel.Ctx) {
			for probeVA == 0 {
				ctx.UserRun(500)
			}
			// Cache the translation.
			if err := ctx.Touch(probeVA, mm.AccessRead); err != nil {
				t.Error(err)
			}
			phase = 1
			// Pure user-space compute: no kernel entry, so a lazy sweep
			// cannot run here.
			for phase == 1 {
				ctx.UserRun(200)
			}
			// The initiator's madvise has returned and the page is gone
			// from the page tables. A correct protocol guarantees the
			// victim's TLB no longer translates probeVA (the next access
			// re-faults); the lazy protocol leaves the stale entry in
			// place, and an access completes at L1-hit cost through a
			// translation to a freed frame.
			_, stillCached := w.k.CPU(2).TLB.Lookup(w.k.PCIDOf(as, true), probeVA)
			before := ctx.P.Now()
			if err := ctx.Touch(probeVA, mm.AccessRead); err != nil {
				t.Error(err)
			}
			hitCost := uint64(ctx.P.Now()-before) == w.k.Cost.L1Hit
			out.staleAccessOK = stillCached && hitCost
			phase = 3
		}})
		w.k.CPU(0).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
				t.Error(err)
			}
			probeVA = v.Start
			for phase == 0 {
				ctx.UserRun(500)
			}
			start := ctx.P.Now()
			if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
				t.Error(err)
			}
			out.madviseCycles = uint64(ctx.P.Now() - start)
			phase = 2
			for phase != 3 {
				ctx.UserRun(500)
			}
		}})
		w.eng.Run()
		return out
	}
	safe := run(false)
	lazy := run(true)
	if lazy.madviseCycles >= safe.madviseCycles {
		t.Fatalf("lazy initiator (%d) not faster than synchronous (%d)", lazy.madviseCycles, safe.madviseCycles)
	}
	if safe.staleAccessOK {
		t.Fatal("synchronous protocol let a stale access succeed — coherence broken")
	}
	if !lazy.staleAccessOK {
		t.Fatal("lazy protocol did not exhibit the §2.3.2 stale-access window (model too strong?)")
	}
}

// TestLazyRemoteEventuallyFlushes: the lazy sweep does run at the next
// kernel entry, so the window closes once the target enters the kernel.
func TestLazyRemoteEventuallyFlushes(t *testing.T) {
	cfg := core.Config{LazyRemote: true}
	w := newWorld(t, true, cfg, 33)
	as := w.k.NewAddressSpace()
	var probeVA uint64
	phase := 0
	w.k.CPU(2).Spawn(&kernel.Task{Name: "victim", MM: as, Fn: func(ctx *kernel.Ctx) {
		for probeVA == 0 {
			ctx.UserRun(500)
		}
		ctx.Touch(probeVA, mm.AccessRead)
		phase = 1
		for phase == 1 {
			ctx.UserRun(500)
		}
		// Enter the kernel: the lazy sweep runs here.
		syscalls.MadviseDontneed(ctx, probeVA, pg) // any syscall works
		if _, ok := w.k.CPU(2).TLB.Lookup(w.k.PCIDOf(as, true), probeVA); ok {
			t.Error("stale entry survived the lazy sweep at kernel entry")
		}
		phase = 3
	}})
	w.k.CPU(0).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		probeVA = v.Start
		for phase == 0 {
			ctx.UserRun(500)
		}
		syscalls.MadviseDontneed(ctx, v.Start, pg)
		phase = 2
		for phase != 3 {
			ctx.UserRun(500)
		}
	}})
	w.eng.Run()
	if w.f.Stats().LazyDeferred == 0 {
		t.Fatal("no lazy deferrals recorded")
	}
}

// --- §6 hardware message IPI ---

func TestHWMessageIPIReducesCoherenceTraffic(t *testing.T) {
	run := func(hw bool) (initCycles uint64, transfers uint64) {
		eng := sim.NewEngine(17)
		k := newKernelWith(t, eng, kernel.DefaultConfig())
		cfg := core.Config{HWMessageIPI: hw}
		f, err := core.NewFlusher(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		k.SetFlusher(f)
		k.Start()
		as := k.NewAddressSpace()
		stop := false
		k.CPU(28).Spawn(&kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
			for !stop {
				ctx.UserRun(1000)
			}
		}})
		k.CPU(0).Spawn(&kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
			ctx.UserRun(5000)
			v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				stop = true
				return
			}
			for i := 0; i < 10; i++ {
				ctx.Touch(v.Start, mm.AccessWrite)
				k.Dir.ResetStats()
				start := ctx.P.Now()
				if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
					t.Error(err)
				}
				initCycles = uint64(ctx.P.Now() - start)
				transfers = k.Dir.Stats().Transfers()
			}
			stop = true
		}})
		eng.Run()
		return
	}
	swCycles, swTransfers := run(false)
	hwCycles, hwTransfers := run(true)
	if hwTransfers >= swTransfers {
		t.Fatalf("hw-message IPI transfers (%d) not below software (%d)", hwTransfers, swTransfers)
	}
	if hwCycles >= swCycles {
		t.Fatalf("hw-message IPI (%d cycles) not faster than software (%d)", hwCycles, swCycles)
	}
}

// --- §7 paravirtual fracture hint ---

func TestParavirtFractureHint(t *testing.T) {
	run := func(hint bool) (cycles uint64, paravirt uint64) {
		eng := sim.NewEngine(13)
		kcfg := kernel.DefaultConfig()
		kcfg.NestedPaging = true
		kcfg.ParavirtFractureHint = hint
		k := newKernelWith(t, eng, kcfg)
		f, err := core.NewFlusher(k, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		k.SetFlusher(f)
		k.Start()
		as := k.NewAddressSpace()
		k.CPU(0).Spawn(&kernel.Task{Name: "guest", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			// Mark the TLB as holding fractured translations, as a guest
			// on 4K host backing would after touching a guest hugepage.
			ctx.CPU.TLB.Fill(as.KernelPCID, fracturedEntry())
			for i := uint64(0); i < 8; i++ {
				ctx.Touch(v.Start+i*pg, mm.AccessWrite)
			}
			start := ctx.P.Now()
			if err := syscalls.MadviseDontneed(ctx, v.Start, 8*pg); err != nil {
				t.Error(err)
			}
			cycles = uint64(ctx.P.Now() - start)
		}})
		eng.Run()
		return cycles, f.Stats().ParavirtFullFlushes
	}
	noHint, pv0 := run(false)
	withHint, pv1 := run(true)
	if pv0 != 0 || pv1 == 0 {
		t.Fatalf("paravirt counters: without=%d with=%d", pv0, pv1)
	}
	if withHint >= noHint {
		t.Fatalf("fracture hint (%d cycles) not faster than N escalating INVLPGs (%d)", withHint, noHint)
	}
}
