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

const pg = pagetable.PageSize4K

type world struct {
	eng *sim.Engine
	k   *kernel.Kernel
	f   *core.Flusher
}

func newWorld(t *testing.T, pti bool, cfg core.Config, seed uint64) *world {
	t.Helper()
	eng := sim.NewEngine(seed)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = pti
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.SetFlusher(f)
	k.Start()
	return &world{eng, k, f}
}

// checkCoherence asserts that no CPU actively running as holds a TLB entry
// that disagrees with the page tables. CPUs that switched away or idle in
// lazy mode may hold stale PCID-tagged entries — those are flushed by the
// generation check before the mm is used again, so they are exempt.
func checkCoherence(t *testing.T, k *kernel.Kernel, as *mm.AddressSpace) {
	t.Helper()
	for _, c := range k.CPUs() {
		if c.CurrentMM() != as || c.Lazy() {
			continue
		}
		if c.HasPendingUserFlush() {
			// Deferred user flushes are pending: the CPU is in kernel
			// mode and will flush before touching user mappings.
			continue
		}
		for _, se := range c.TLB.Snapshot() {
			if se.PCID != as.KernelPCID && se.PCID != as.UserPCID {
				continue
			}
			tr, err := as.PT.Walk(se.Entry.VA)
			if err != nil {
				t.Errorf("cpu%d: TLB caches unmapped va %#x (pcid %d)", c.ID, se.Entry.VA, se.PCID)
				continue
			}
			if tr.Frame != se.Entry.Frame {
				t.Errorf("cpu%d: stale frame for va %#x: TLB %d, PT %d", c.ID, se.Entry.VA, se.Entry.Frame, tr.Frame)
			}
			if se.Entry.Flags.Has(pagetable.Write) && !tr.Flags.Has(pagetable.Write) {
				t.Errorf("cpu%d: TLB grants write at %#x but PT is read-only", c.ID, se.Entry.VA)
			}
		}
	}
}

// runMadviseScenario runs the paper's microbenchmark shape: an initiator
// mmaps, touches, and madvises pages while a responder busy-loops in the
// same address space. It returns the initiator syscall cycles and the
// responder interruption cycles.
func runMadviseScenario(t *testing.T, pti bool, cfg core.Config, pages uint64, respCPU mach.CPU) (initCycles, respCycles uint64, w *world) {
	t.Helper()
	w = newWorld(t, pti, cfg, 42)
	as := w.k.NewAddressSpace()

	respDone := false
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !respDone {
			ctx.UserRun(2000)
		}
	}}
	w.k.CPU(respCPU).Spawn(responder)

	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		// Let the responder start and settle.
		ctx.UserRun(10_000)
		v, err := syscalls.MMap(ctx, 64*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			respDone = true
			return
		}
		for rep := 0; rep < 5; rep++ {
			for i := uint64(0); i < pages; i++ {
				if err := ctx.Touch(v.Start+i*pg, mm.AccessWrite); err != nil {
					t.Error(err)
				}
			}
			w.k.CPU(0).ResetCounters()
			start := ctx.P.Now()
			if err := syscalls.MadviseDontneed(ctx, v.Start, pages*pg); err != nil {
				t.Error(err)
			}
			initCycles = uint64(ctx.P.Now() - start)
			respCycles = w.k.CPU(respCPU).Interrupted
			w.k.CPU(respCPU).ResetCounters()
		}
		respDone = true
	}}
	w.k.CPU(0).Spawn(initiator)
	w.eng.Run()
	if !initiator.Done() || !responder.Done() {
		t.Fatal("tasks did not complete")
	}
	checkCoherence(t, w.k, as)
	return initCycles, respCycles, w
}

func TestMadviseShootdownBaseline(t *testing.T) {
	initCycles, respCycles, w := runMadviseScenario(t, true, core.Baseline(), 1, 2)
	if initCycles == 0 || respCycles == 0 {
		t.Fatalf("cycles: init=%d resp=%d", initCycles, respCycles)
	}
	// A shootdown costs "several thousand cycles".
	if initCycles < 2000 || initCycles > 50000 {
		t.Fatalf("initiator cycles %d outside plausible shootdown range", initCycles)
	}
	st := w.f.Stats()
	if st.Shootdowns == 0 {
		t.Fatalf("no shootdowns recorded: %+v", st)
	}
}

func TestShootdownRemovesRemoteEntries(t *testing.T) {
	w := newWorld(t, true, core.Baseline(), 7)
	as := w.k.NewAddressSpace()
	var vaProbe uint64
	stop := false

	resp := &kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		// Wait for the initiator to publish the address, then touch it so
		// this CPU's TLB caches the translation.
		for vaProbe == 0 {
			ctx.UserRun(1000)
		}
		if err := ctx.Touch(vaProbe, mm.AccessRead); err != nil {
			t.Error(err)
		}
		if _, ok := w.k.CPU(2).TLB.Lookup(w.k.PCIDOf(as, true), vaProbe); !ok {
			t.Error("responder TLB did not cache probe address")
		}
		for !stop {
			ctx.UserRun(1000)
		}
		// After the madvise shootdown the entry must be gone.
		if _, ok := w.k.CPU(2).TLB.Lookup(w.k.PCIDOf(as, true), vaProbe); ok {
			t.Error("stale translation survived the shootdown")
		}
	}}
	w.k.CPU(2).Spawn(resp)

	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			stop = true
			return
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		vaProbe = v.Start
		ctx.UserRun(20_000) // give the responder time to cache it
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			t.Error(err)
		}
		stop = true
	}}
	w.k.CPU(0).Spawn(init)
	w.eng.Run()
	if !resp.Done() || !init.Done() {
		t.Fatal("tasks did not finish")
	}
	checkCoherence(t, w.k, as)
}

func TestConcurrentFlushFasterForInitiator(t *testing.T) {
	base, _, _ := runMadviseScenario(t, true, core.Baseline(), 10, 28)
	conc, _, _ := runMadviseScenario(t, true, core.Config{ConcurrentFlush: true}, 10, 28)
	if conc >= base {
		t.Fatalf("concurrent flush did not speed up initiator: %d vs %d", conc, base)
	}
}

func TestEarlyAckFasterForInitiator(t *testing.T) {
	c1 := core.Config{ConcurrentFlush: true}
	c2 := core.Config{ConcurrentFlush: true, EarlyAck: true}
	a, _, _ := runMadviseScenario(t, true, c1, 10, 28)
	b, _, _ := runMadviseScenario(t, true, c2, 10, 28)
	if b >= a {
		t.Fatalf("early ack did not speed up initiator: %d vs %d", b, a)
	}
}

func TestInContextReducesResponderTime(t *testing.T) {
	c1 := core.Config{ConcurrentFlush: true, EarlyAck: true}
	c2 := core.Config{ConcurrentFlush: true, EarlyAck: true, InContextFlush: true}
	_, r1, _ := runMadviseScenario(t, true, c1, 10, 28)
	_, r2, _ := runMadviseScenario(t, true, c2, 10, 28)
	if r2 >= r1 {
		t.Fatalf("in-context flushing did not reduce responder time: %d vs %d", r2, r1)
	}
}

func TestAllOptimizationsFasterThanBaseline(t *testing.T) {
	for _, pti := range []bool{true, false} {
		base, baseResp, _ := runMadviseScenario(t, pti, core.Baseline(), 10, 28)
		cfg := core.AllGeneral()
		cfg.CachelineConsolidation = true
		opt, optResp, _ := runMadviseScenario(t, pti, cfg, 10, 28)
		if opt >= base {
			t.Errorf("pti=%v: all-optimized initiator %d not faster than baseline %d", pti, opt, base)
		}
		if optResp >= baseResp {
			t.Errorf("pti=%v: all-optimized responder %d not faster than baseline %d", pti, optResp, baseResp)
		}
	}
}

func TestLazyCPUsSkipped(t *testing.T) {
	w := newWorld(t, true, core.Baseline(), 3)
	as := w.k.NewAddressSpace()
	// A task runs briefly on cpu 4 and exits; cpu 4 then idles lazily with
	// the mm still loaded.
	warm := &kernel.Task{Name: "warm", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(1000)
	}}
	w.k.CPU(4).Spawn(warm)

	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(20_000) // wait for cpu4 to go lazy
		if !w.k.CPU(4).Lazy() {
			t.Error("cpu4 not lazy")
		}
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			t.Error(err)
		}
	}}
	w.k.CPU(0).Spawn(init)
	w.eng.Run()
	st := w.f.Stats()
	if st.LazySkips == 0 {
		t.Fatalf("no lazy skips recorded: %+v", st)
	}
	// The lazy CPU received no IPI.
	if got := w.k.CPU(4).IRQsHandled; got != 0 {
		t.Fatalf("lazy cpu handled %d IRQs", got)
	}
}

// TestLazySkipIsCoherent verifies the safety side of lazy skipping: when a
// task later runs on the previously-lazy CPU, the generation check flushes
// the stale entries before any user access.
func TestLazySkipIsCoherent(t *testing.T) {
	w := newWorld(t, true, core.Baseline(), 9)
	as := w.k.NewAddressSpace()
	var probe uint64
	phase := 0

	t1 := &kernel.Task{Name: "warm", MM: as, Fn: func(ctx *kernel.Ctx) {
		for probe == 0 {
			ctx.UserRun(500)
		}
		ctx.Touch(probe, mm.AccessRead) // cache translation on cpu4
		phase = 1
	}}
	w.k.CPU(4).Spawn(t1)

	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		probe = v.Start
		for phase == 0 {
			ctx.UserRun(1000)
		}
		ctx.UserRun(20_000) // let cpu4 go lazy
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			t.Error(err)
		}
		phase = 2
	}}
	w.k.CPU(0).Spawn(init)

	// Re-run a task on cpu4 afterwards: it must not see the stale entry.
	late := &kernel.Task{Name: "late", MM: as, Fn: func(ctx *kernel.Ctx) {
		for phase != 2 {
			ctx.UserRun(1000)
		}
		// The generation catch-up ran at task start only if phase==2 was
		// already true; re-reading through Touch must fault (page gone),
		// not hit a stale entry.
		if _, ok := w.k.CPU(4).TLB.Lookup(w.k.PCIDOf(as, true), probe); ok {
			// Allowed only while the CPU still has a pending catch-up;
			// after CatchUpGen it must be gone. Force the check:
			w.k.CPU(4).CatchUpGen(ctx.P, as)
			if _, ok := w.k.CPU(4).TLB.Lookup(w.k.PCIDOf(as, true), probe); ok {
				t.Error("stale entry survived generation catch-up")
			}
		}
	}}
	// Spawn late only after the shootdown to ensure cpu4 idles through it.
	w.eng.Go("spawner", func(p *sim.Proc) {
		for phase != 2 {
			p.Delay(5000)
		}
		w.k.CPU(4).Spawn(late)
	})
	w.eng.Run()
	if !late.Done() {
		t.Fatal("late task did not run")
	}
	checkCoherence(t, w.k, as)
}

func TestEarlyAckSuppressedOnMunmap(t *testing.T) {
	cfg := core.Config{ConcurrentFlush: true, EarlyAck: true}
	w := newWorld(t, true, cfg, 11)
	as := w.k.NewAddressSpace()
	stop := false
	resp := &kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(1000)
		}
	}}
	w.k.CPU(2).Spawn(resp)
	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(5000)
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			stop = true
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		if err := syscalls.Munmap(ctx, v.Start, v.Len()); err != nil {
			t.Error(err)
		}
		stop = true
	}}
	w.k.CPU(0).Spawn(init)
	w.eng.Run()
	st := w.f.Stats()
	if st.EarlyAckSuppressed == 0 {
		t.Fatalf("munmap (freed tables) did not suppress early ack: %+v", st)
	}
	// The SMP layer must have used a late ack.
	if w.k.SMP.Stats().EarlyAcks != 0 {
		t.Fatalf("early acks used despite freed tables: %+v", w.k.SMP.Stats())
	}
}

func TestCoWTrickAvoidsFlush(t *testing.T) {
	run := func(avoid bool) (cycles uint64, st core.Stats) {
		cfg := core.Config{AvoidCoWFlush: avoid}
		w := newWorld(t, true, cfg, 5)
		as := w.k.NewAddressSpace()
		file := w.k.NewFile("f", 16*pg)
		task := &kernel.Task{Name: "cow", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.FilePrivate, file, 0)
			if err != nil {
				t.Error(err)
				return
			}
			// Read first so the page maps read-only (CoW armed).
			if err := ctx.Touch(v.Start, mm.AccessRead); err != nil {
				t.Error(err)
			}
			start := ctx.P.Now()
			if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
				t.Error(err)
			}
			cycles = uint64(ctx.P.Now() - start)
		}}
		w.k.CPU(0).Spawn(task)
		w.eng.Run()
		checkCoherence(t, w.k, as)
		return cycles, w.f.Stats()
	}
	baseCycles, baseStats := run(false)
	optCycles, optStats := run(true)
	if baseStats.CoWLocalFlushes != 1 || baseStats.CoWWriteTricks != 0 {
		t.Fatalf("baseline stats = %+v", baseStats)
	}
	if optStats.CoWWriteTricks != 1 || optStats.CoWLocalFlushes != 0 {
		t.Fatalf("optimized stats = %+v", optStats)
	}
	if optCycles >= baseCycles {
		t.Fatalf("CoW trick not faster: %d vs %d", optCycles, baseCycles)
	}
}

func TestCoWTrickSkippedForExecutablePages(t *testing.T) {
	cfg := core.Config{AvoidCoWFlush: true}
	w := newWorld(t, true, cfg, 6)
	as := w.k.NewAddressSpace()
	file := w.k.NewFile("lib", 8*pg)
	task := &kernel.Task{Name: "jit", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite|mm.ProtExec, mm.FilePrivate, file, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessRead)
		ctx.Touch(v.Start, mm.AccessWrite)
	}}
	w.k.CPU(0).Spawn(task)
	w.eng.Run()
	st := w.f.Stats()
	if st.CoWWriteTricks != 0 {
		t.Fatalf("write trick used on an executable page: %+v", st)
	}
	if st.CoWLocalFlushes != 1 {
		t.Fatalf("expected flush fallback: %+v", st)
	}
}

func TestBatchingSkipsIPIs(t *testing.T) {
	cfg := core.Config{UserspaceBatching: true}
	w := newWorld(t, true, cfg, 13)
	as := w.k.NewAddressSpace()
	file := w.k.NewFile("db", 128*pg)
	barrier := 0

	// Two tasks share the mm; both loop doing fdatasync so they are very
	// likely inside a batched section when the other flushes.
	mk := func(name string, cpu mach.CPU) *kernel.Task {
		task := &kernel.Task{Name: name, MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 64*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
			if err != nil {
				t.Error(err)
				return
			}
			barrier++
			for barrier < 2 {
				ctx.UserRun(500)
			}
			for i := 0; i < 30; i++ {
				ctx.Touch(v.Start+uint64(i%16)*pg, mm.AccessWrite)
				if err := syscalls.Fdatasync(ctx, file); err != nil {
					t.Error(err)
				}
			}
		}}
		w.k.CPU(cpu).Spawn(task)
		return task
	}
	t1 := mk("db1", 0)
	t2 := mk("db2", 2)
	w.eng.Run()
	if !t1.Done() || !t2.Done() {
		t.Fatal("tasks did not finish")
	}
	st := w.f.Stats()
	if st.BatchedSkips == 0 {
		t.Fatalf("batching never skipped an IPI: %+v", st)
	}
	checkCoherence(t, w.k, as)
}

func TestDeterministicEndToEnd(t *testing.T) {
	a, ar, _ := runMadviseScenario(t, true, core.AllGeneral(), 10, 28)
	b, br, _ := runMadviseScenario(t, true, core.AllGeneral(), 10, 28)
	if a != b || ar != br {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", a, ar, b, br)
	}
}

// TestConfigPicksSMPLayout: the protocol config alone picks the SMP
// layer's cacheline layout. Consolidated, the lazy flag shares the CSQ
// head line and the generation state has a line of its own; baseline,
// the lazy flag and the generation state share one line (§3.3).
func TestConfigPicksSMPLayout(t *testing.T) {
	for _, consolidated := range []bool{false, true} {
		k := kernel.New(sim.NewEngine(1), mach.DefaultTopology(), mach.DefaultCosts(), kernel.DefaultConfig())
		if _, err := core.NewFlusher(k, core.Config{CachelineConsolidation: consolidated}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []mach.CPU{0, 5} {
			lazy, gen, csq := k.SMP.LazyLine(c), k.SMP.GenLine(c), k.SMP.CSQLine(c)
			if consolidated && (lazy != csq || gen == csq) {
				t.Errorf("consolidated cpu %d: want the lazy flag on the CSQ line and the generation state apart", c)
			}
			if !consolidated && (lazy != gen || lazy == csq) {
				t.Errorf("baseline cpu %d: want the lazy flag and the generation state on one line off the CSQ", c)
			}
		}
	}
}

func TestCumulativeConfigs(t *testing.T) {
	safe := core.CumulativeConfigs(true)
	if len(safe) != 5 {
		t.Fatalf("safe configs = %d, want 5", len(safe))
	}
	unsafe := core.CumulativeConfigs(false)
	if len(unsafe) != 4 {
		t.Fatalf("unsafe configs = %d, want 4", len(unsafe))
	}
	if safe[0].String() != "baseline" {
		t.Fatalf("first config = %s", safe[0])
	}
	if got := safe[4].String(); got != "concurrent+earlyack+cacheline+incontext" {
		t.Fatalf("last safe config = %s", got)
	}
}

var _ = tlb.GlobalTag // keep the tlb import for coherence helpers
