package kernel

import (
	"strings"
	"testing"

	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// nopFlusher satisfies Flusher with minimal behaviour: it flushes the
// local TLB entries directly (no shootdown), enough for kernel-layer unit
// tests.
type nopFlusher struct {
	flushes int
	cows    int
}

func (f *nopFlusher) FlushAfter(ctx *Ctx, as *mm.AddressSpace, fr mm.FlushRange) {
	f.flushes++
	stride := fr.Stride.Bytes()
	for va := fr.Start; va < fr.End; va += stride {
		ctx.CPU.TLB.FlushPage(as.KernelPCID, va)
		ctx.CPU.TLB.FlushPage(as.UserPCID, va)
	}
}

func (f *nopFlusher) CoWFixup(ctx *Ctx, as *mm.AddressSpace, res mm.FaultResult) {
	f.cows++
	ctx.CPU.TLB.FlushPage(as.KernelPCID, res.VA)
	ctx.CPU.TLB.FlushPage(as.UserPCID, res.VA)
}

func (f *nopFlusher) BatchingEnabled() bool { return false }

func newKernel(t *testing.T, pti bool) (*Kernel, *nopFlusher) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.PTI = pti
	k := New(eng, mach.DefaultTopology(), mach.DefaultCosts(), cfg)
	f := &nopFlusher{}
	k.SetFlusher(f)
	k.Start()
	return k, f
}

const pg = pagetable.PageSize4K

func TestTaskRunsAndJoins(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	ran := false
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		ctx.UserRun(1000)
		ran = true
	}}
	k.CPU(3).Spawn(task)
	waiter := false
	k.Eng.Go("joiner", func(p *sim.Proc) {
		task.Join(p)
		waiter = true
	})
	k.Eng.Run()
	if !ran || !task.Done() || !waiter {
		t.Fatalf("ran=%v done=%v joined=%v", ran, task.Done(), waiter)
	}
	if k.CPU(3).CurrentMM() != as {
		t.Fatal("mm not loaded")
	}
	if !k.CPU(3).Lazy() {
		t.Fatal("CPU not lazy after task exit")
	}
}

func TestSpawnValidation(t *testing.T) {
	k, _ := newKernel(t, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn without MM did not panic")
		}
	}()
	k.CPU(0).Spawn(&Task{Name: "bad", Fn: func(*Ctx) {}})
}

func TestUserRunAdvancesTime(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	var elapsed sim.Time
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		start := ctx.P.Now()
		ctx.UserRun(12345)
		elapsed = ctx.P.Now() - start
	}}
	k.CPU(0).Spawn(task)
	k.Eng.Run()
	if elapsed != 12345 {
		t.Fatalf("elapsed = %d", elapsed)
	}
}

func TestSyscallEntryExitCosts(t *testing.T) {
	for _, pti := range []bool{true, false} {
		k, _ := newKernel(t, pti)
		as := k.NewAddressSpace()
		var cost uint64
		task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
			start := ctx.P.Now()
			ctx.EnterSyscall()
			ctx.ExitSyscall()
			cost = uint64(ctx.P.Now() - start)
		}}
		k.CPU(0).Spawn(task)
		k.Eng.Run()
		want := k.Cost.SyscallEntry + k.Cost.SyscallExit
		if pti {
			want += 2 * k.Cost.PTITrampoline
		}
		if cost != want {
			t.Fatalf("pti=%v syscall cost = %d, want %d", pti, cost, want)
		}
	}
}

func TestSyscallModeMisuse(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		defer func() {
			if recover() == nil {
				t.Error("nested EnterSyscall did not panic")
			}
			ctx.ExitSyscall()
		}()
		ctx.EnterSyscall()
	}}
	k.CPU(0).Spawn(task)
	k.Eng.Run()
}

func TestTouchPopulatesAndCaches(t *testing.T) {
	k, fl := newKernel(t, true)
	as := k.NewAddressSpace()
	var missCost, hitCost uint64
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		v, err := as.MMap(4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		start := ctx.P.Now()
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		missCost = uint64(ctx.P.Now() - start)
		start = ctx.P.Now()
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		hitCost = uint64(ctx.P.Now() - start)
	}}
	k.CPU(0).Spawn(task)
	k.Eng.Run()
	if hitCost != k.Cost.L1Hit {
		t.Fatalf("hit cost = %d, want L1 %d", hitCost, k.Cost.L1Hit)
	}
	if missCost < 10*hitCost {
		t.Fatalf("fault cost %d implausibly close to hit cost %d", missCost, hitCost)
	}
	if fl.flushes != 0 {
		t.Fatalf("populate should not flush, got %d", fl.flushes)
	}
}

func TestTouchSegfault(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	var err error
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		err = ctx.Touch(0xdead0000, mm.AccessRead)
	}}
	k.CPU(0).Spawn(task)
	k.Eng.Run()
	if err == nil {
		t.Fatal("unmapped access did not error")
	}
}

func TestCoWFixupInvoked(t *testing.T) {
	k, fl := newKernel(t, true)
	as := k.NewAddressSpace()
	file := k.NewFile("f", 4*pg)
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		v, err := as.MMap(4*pg, mm.ProtRead|mm.ProtWrite, mm.FilePrivate, file, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessRead)
		ctx.Touch(v.Start, mm.AccessWrite)
	}}
	k.CPU(0).Spawn(task)
	k.Eng.Run()
	if fl.cows != 1 {
		t.Fatalf("CoWFixup calls = %d", fl.cows)
	}
}

func TestPCIDOf(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	if k.PCIDOf(as, true) == k.PCIDOf(as, false) {
		t.Fatal("PTI user and kernel PCIDs must differ")
	}
	k2, _ := newKernel(t, false)
	as2 := k2.NewAddressSpace()
	if k2.PCIDOf(as2, true) != k2.PCIDOf(as2, false) {
		t.Fatal("without PTI there is one PCID")
	}
}

func TestDeferUserFlushMerging(t *testing.T) {
	k, _ := newKernel(t, true)
	c := k.CPU(0)
	c.DeferUserFlush(0x4000, 0x6000, pagetable.Size4K)
	c.DeferUserFlush(0x1000, 0x2000, pagetable.Size4K)
	start, ok := c.PendingUserFlushStart()
	if !ok || start != 0x1000 || c.duEnd != 0x6000 || c.duStridePages != 1 {
		t.Fatalf("merged range = %#x..%#x stride %d ok=%v", start, c.duEnd, c.duStridePages, ok)
	}
	// Consuming pages shrinks the range from the front.
	if n := c.ConsumeDeferredUserPages(2); n != 2 {
		t.Fatalf("consumed %d", n)
	}
	if start, _ = c.PendingUserFlushStart(); start != 0x3000 || c.duEnd != 0x6000 {
		t.Fatalf("range after consume = %#x..%#x", start, c.duEnd)
	}
	// Over-consume caps at what is available.
	if n := c.ConsumeDeferredUserPages(100); n != 3 {
		t.Fatalf("consumed %d, want 3", n)
	}
	if c.HasPendingUserFlush() {
		t.Fatal("still pending after consuming everything")
	}
}

func TestDeferUserFlushEscalations(t *testing.T) {
	k, _ := newKernel(t, true)
	c := k.CPU(0)
	// Span exceeding the threshold escalates to a deferred full flush.
	c.DeferUserFlush(0, (FullFlushThreshold+2)*pg, pagetable.Size4K)
	if _, ok := c.PendingUserFlushStart(); ok {
		t.Fatal("range still selective after exceeding threshold")
	}
	if !c.HasPendingUserFlush() {
		t.Fatal("no pending full flush")
	}
	// Mixed strides escalate too.
	c2 := k.CPU(1)
	c2.DeferUserFlush(0, pg, pagetable.Size4K)
	c2.DeferUserFlush(0, pagetable.PageSize2M, pagetable.Size2M)
	if _, ok := c2.PendingUserFlushStart(); ok {
		t.Fatal("mixed strides kept a selective range")
	}
}

// TestNMIDispatch sends an NMI to a CPU running a task in user mode: the
// CPU services it once, through the NMI handler, and charges the task
// the handler, the user-mode entry and exit and both PTI trampolines.
func TestNMIDispatch(t *testing.T) {
	k, _ := newKernel(t, true)
	c := k.CPU(1)
	c.Spawn(&Task{Name: "t", MM: k.NewAddressSpace(), Fn: func(ctx *Ctx) {
		ctx.UserRun(100000)
	}})
	k.Eng.Go("nmi", func(p *sim.Proc) {
		p.Delay(10000)
		k.Bus.SendNMI(p, 0, c.ID)
	})
	k.Eng.Run()
	if c.IRQsHandled != 1 {
		t.Fatalf("IRQsHandled = %d, want 1 (the NMI)", c.IRQsHandled)
	}
	cost := k.Cost
	if want := cost.NMIHandler + cost.IRQEntryUser + cost.IRQExit + 2*cost.PTITrampoline; c.Interrupted < want {
		t.Fatalf("Interrupted = %d cycles, want at least %d (handler, user entry and exit, two PTI trampolines)", c.Interrupted, want)
	}
}

func TestNMIUaccessOkay(t *testing.T) {
	k, _ := newKernel(t, true)
	c := k.CPU(0)
	if c.NMIUaccessOkay() {
		t.Fatal("okay with no mm loaded")
	}
	as := k.NewAddressSpace()
	done := false
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		if !c.NMIUaccessOkay() {
			t.Error("not okay with mm loaded and no pending flushes")
		}
		c.DeferUserFlush(0x1000, 0x2000, pagetable.Size4K)
		if c.NMIUaccessOkay() {
			t.Error("okay despite pending user flush (paper §3.2 check)")
		}
		ctx.EnterSyscall()
		ctx.ExitSyscall() // drains the deferred flush
		if !c.NMIUaccessOkay() {
			t.Error("not okay after flush drained")
		}
		done = true
	}}
	c.Spawn(task)
	k.Eng.Run()
	if !done {
		t.Fatal("task incomplete")
	}
}

func TestBatchedSectionDrainsQueuedWork(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	c := k.CPU(0)
	ran := 0
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		c.EnterBatchedSection(ctx.P)
		if !c.InBatchedSyscall() {
			t.Error("not marked batched")
		}
		c.QueueBatchedFlush(func(p *sim.Proc) {
			ran++
			// Work queued during the drain is drained too.
			if ran == 1 {
				c.QueueBatchedFlush(func(*sim.Proc) { ran++ })
			}
		})
		c.ExitBatchedSection(ctx.P)
		if c.InBatchedSyscall() {
			t.Error("still batched after exit")
		}
		ctx.ExitSyscall()
	}}
	c.Spawn(task)
	k.Eng.Run()
	if ran != 2 {
		t.Fatalf("queued work ran %d times, want 2 (incl. nested)", ran)
	}
}

func TestSwitchMMFlushesStaleGenerations(t *testing.T) {
	k, _ := newKernel(t, true)
	asA := k.NewAddressSpace()
	asB := k.NewAddressSpace()
	c := k.CPU(0)

	phase := 0
	t1 := &Task{Name: "a1", MM: asA, Fn: func(ctx *Ctx) {
		v, err := asA.MMap(2*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		phase = 1
	}}
	// A task of another mm runs in between; meanwhile asA's generation is
	// bumped behind this CPU's back.
	t2 := &Task{Name: "b", MM: asB, Fn: func(ctx *Ctx) {
		asA.BumpGen() // simulate a PTE change elsewhere
		ctx.UserRun(100)
		phase = 2
	}}
	t3 := &Task{Name: "a2", MM: asA, Fn: func(ctx *Ctx) {
		// The switch back must have caught up the generation.
		if c.LocalGen(asA) != asA.Gen() {
			t.Errorf("localGen %d != mm gen %d after switch-in", c.LocalGen(asA), asA.Gen())
		}
		phase = 3
	}}
	c.Spawn(t1)
	c.Spawn(t2)
	c.Spawn(t3)
	k.Eng.Run()
	if phase != 3 {
		t.Fatalf("phase = %d", phase)
	}
	// asA's cpumask no longer includes the CPU? It does (reloaded), but
	// during t2 it must have been cleared.
	if !asA.ActiveCPUs().Has(0) {
		t.Fatal("cpu not active in asA after reload")
	}
}

// TestFlushMM: a full mm flush charges exactly one flushing CR3 write
// and empties the kernel PCID's entries. Under PTI, and only then, the
// user PCID's entries stay until the return to user mode, whose deferred
// flush is then pending.
func TestFlushMM(t *testing.T) {
	for _, pti := range []bool{false, true} {
		k, _ := newKernel(t, pti)
		as := k.NewAddressSpace()
		c := k.CPU(0)
		e := tlb.Entry{VA: 4 * pg, Frame: 9, Size: pagetable.Size4K, Flags: pagetable.Present | pagetable.User}
		c.TLB.Fill(as.KernelPCID, e)
		c.TLB.Fill(as.UserPCID, e)
		var charged uint64
		k.Eng.Go("flush", func(p *sim.Proc) {
			start := p.Now()
			c.FlushMM(p, as)
			charged = uint64(p.Now() - start)
		})
		k.Eng.Run()
		if charged != k.Cost.CR3WriteFlush {
			t.Errorf("pti=%v: FlushMM charged %d cycles, want CR3WriteFlush = %d", pti, charged, k.Cost.CR3WriteFlush)
		}
		if _, ok := c.TLB.Lookup(as.KernelPCID, e.VA); ok {
			t.Errorf("pti=%v: kernel-PCID entry survived the full flush", pti)
		}
		if _, ok := c.TLB.Lookup(as.UserPCID, e.VA); !ok {
			t.Errorf("pti=%v: user-PCID entry flushed before the return to user mode", pti)
		}
		if c.HasPendingUserFlush() != pti {
			t.Errorf("pti=%v: deferred user flush pending = %v", pti, c.HasPendingUserFlush())
		}
	}
}

func TestKernelRunServicesIRQs(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	c0 := k.CPU(0)
	handled := false
	long := &Task{Name: "long", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		before := c0.IRQsHandled
		ctx.CPU.KernelRun(ctx.P, 200_000)
		handled = c0.IRQsHandled > before
		ctx.ExitSyscall()
	}}
	c0.Spawn(long)
	// Another CPU pokes cpu0 with a reschedule IPI mid-syscall.
	k.Eng.Go("poker", func(p *sim.Proc) {
		p.Delay(50_000)
		k.Bus.SendIPI(p, 5, mach.MaskOf(0), 0xfd)
	})
	k.Eng.Run()
	if !handled {
		t.Fatal("KernelRun did not service the IRQ")
	}
}

func TestDownReadServicesIRQsWhileBlocked(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	sem := as.MmapSem
	c0 := k.CPU(0)
	var handledWhileBlocked bool

	holder := &Task{Name: "holder", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		ctx.CPU.DownWrite(ctx.P, sem)
		ctx.CPU.KernelRun(ctx.P, 100_000)
		sem.UpWrite(ctx.P)
		ctx.ExitSyscall()
	}}
	blocked := &Task{Name: "blocked", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		before := ctx.CPU.IRQsHandled
		ctx.CPU.DownRead(ctx.P, sem) // blocks ~100k cycles
		handledWhileBlocked = ctx.CPU.IRQsHandled > before
		sem.UpRead(ctx.P)
		ctx.ExitSyscall()
	}}
	k.CPU(2).Spawn(holder)
	k.Eng.Go("starter", func(p *sim.Proc) {
		p.Delay(1000) // let the holder acquire first
		c0.Spawn(blocked)
	})
	k.Eng.Go("poker", func(p *sim.Proc) {
		p.Delay(50_000)
		k.Bus.SendIPI(p, 5, mach.MaskOf(0), 0xfd)
	})
	k.Eng.Run()
	if !blocked.Done() {
		t.Fatal("blocked task never finished")
	}
	if !handledWhileBlocked {
		t.Fatal("IRQ not serviced while blocked on rwsem")
	}
}

// TestIdleServiceIRQsIsPure pins the premise of the quiet poll (CPU.quiet
// skips ServiceIRQs calls it records only a load for): with no
// interrupt deliverable and no lazy work due, ServiceIRQs moves no
// clock, schedules no event, handles and charges nothing, and records
// exactly one race-model access, an atomic load. It checks user mode with
// lazy work queued (not due until kernel entry) and kernel mode with none.
func TestIdleServiceIRQsIsPure(t *testing.T) {
	k, _ := newKernel(t, true)
	d := race.New(k.Eng)
	k.EnableRace(d)
	as := k.NewAddressSpace()
	c := k.CPU(3)
	checks := 0
	idle := func(ctx *Ctx, mode string) {
		if c.Ctrl.Deliverable() || len(c.lazyWork) > 0 && !c.inUser {
			t.Fatalf("%s: CPU not idle", mode)
		}
		now, pending := k.Eng.Now(), k.Eng.Pending()
		irqs, interrupted := c.IRQsHandled, c.Interrupted
		before := d.Finish().Stats
		c.ServiceIRQs(ctx.P)
		after := d.Finish().Stats
		if k.Eng.Now() != now || k.Eng.Pending() != pending {
			t.Errorf("%s: Now/Pending went %d/%d -> %d/%d", mode, now, pending, k.Eng.Now(), k.Eng.Pending())
		}
		if c.IRQsHandled != irqs || c.Interrupted != interrupted {
			t.Errorf("%s: IRQsHandled/Interrupted went %d/%d -> %d/%d", mode, irqs, interrupted, c.IRQsHandled, c.Interrupted)
		}
		before.AtomicLoads++
		if after != before {
			t.Errorf("%s: race stats %+v, want one more atomic load than %+v", mode, after, before)
		}
		checks++
	}
	c.Spawn(&Task{Name: "idle", MM: as, Fn: func(ctx *Ctx) {
		ctx.UserRun(1000)
		c.QueueLazyWork(func(*sim.Proc) {})
		idle(ctx, "user mode, lazy work queued")
		ctx.EnterSyscall() // drains the lazy work
		idle(ctx, "kernel mode")
		ctx.ExitSyscall()
	}})
	k.Eng.Run()
	if checks != 2 {
		t.Fatalf("ran %d of 2 checks", checks)
	}
}

// TestSpinUntilZeroQuantumPanics: a zero quantum never lets time pass,
// so SpinUntil refuses it before it polls (no engine runs here, so a
// missing check cannot hang).
func TestSpinUntilZeroQuantumPanics(t *testing.T) {
	k, _ := newKernel(t, true)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "SpinUntil") || !strings.Contains(msg, "zero quantum") {
			t.Fatalf("recovered %q, want the zero-quantum panic naming SpinUntil", msg)
		}
	}()
	k.CPU(0).SpinUntil(nil, func() bool { return false }, 0)
}

func TestInterruptedAccounting(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	c2 := k.CPU(2)
	task := &Task{Name: "victim", MM: as, Fn: func(ctx *Ctx) {
		ctx.UserRun(100_000)
	}}
	c2.Spawn(task)
	k.Eng.Go("poker", func(p *sim.Proc) {
		p.Delay(20_000)
		k.Bus.SendIPI(p, 0, mach.MaskOf(2), 0xfd)
	})
	k.Eng.Run()
	if c2.Interrupted == 0 {
		t.Fatal("interruption not accounted")
	}
	// The IRQ handler cost: user entry + PTI + exit + PTI at minimum.
	min := k.Cost.IRQEntryUser + k.Cost.IRQExit
	if c2.Interrupted < min {
		t.Fatalf("Interrupted = %d, want >= %d", c2.Interrupted, min)
	}
	c2.ResetCounters()
	if c2.Interrupted != 0 || c2.IRQsHandled != 0 {
		t.Fatal("ResetCounters incomplete")
	}
}

func TestEnableTraceRecordsEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(eng, mach.DefaultTopology(), mach.DefaultCosts(), DefaultConfig())
	k.SetFlusher(&nopFlusher{})
	rec := k.EnableTrace()
	k.Start()
	as := k.NewAddressSpace()
	task := &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		ctx.ExitSyscall()
	}}
	k.CPU(0).Spawn(task)
	eng.Run()
	if len(rec.Events()) < 2 {
		t.Fatalf("trace events = %d", len(rec.Events()))
	}
}

func TestDisablePCIDFlushesOnSwitch(t *testing.T) {
	run := func(disable bool) (misses uint64) {
		eng := sim.NewEngine(3)
		cfg := DefaultConfig()
		cfg.DisablePCID = disable
		k := New(eng, mach.DefaultTopology(), mach.DefaultCosts(), cfg)
		k.SetFlusher(&nopFlusher{})
		k.Start()
		asA := k.NewAddressSpace()
		asB := k.NewAddressSpace()
		var va uint64
		mkTouch := func(as *mm.AddressSpace, publish bool) *Task {
			return &Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
				if publish {
					v, err := as.MMap(8*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
					if err != nil {
						t.Error(err)
						return
					}
					va = v.Start
				}
				if as == asA {
					for i := uint64(0); i < 8; i++ {
						ctx.Touch(va+i*pg, mm.AccessWrite)
					}
				} else {
					ctx.UserRun(1000)
				}
			}}
		}
		// A touches, B runs (switch), A touches again.
		k.CPU(0).Spawn(mkTouch(asA, true))
		k.CPU(0).Spawn(mkTouch(asB, false))
		k.CPU(0).Spawn(mkTouch(asA, false))
		eng.Run()
		return k.CPU(0).TLB.Stats().Misses
	}
	withPCID := run(false)
	without := run(true)
	if without <= withPCID {
		t.Fatalf("no-PCID misses (%d) not above PCID misses (%d)", without, withPCID)
	}
}

// TestEnableRaceNamesCPUVars: a machine without a detector holds no
// race-variable names; EnableRace names each CPU's six shared variables,
// and every name resolves to the registry entry of its name field.
func TestEnableRaceNamesCPUVars(t *testing.T) {
	k, _ := newKernel(t, false)
	names := func(c *CPU) map[string]string {
		return map[string]string{
			"runqVar": c.runqVar, "lazyVar": c.lazyVar, "genVar": c.genVar,
			"lazyqVar": c.lazyqVar, "batchedVar": c.batchedVar, "batchqVar": c.batchqVar,
		}
	}
	for _, c := range k.CPUs() {
		for field, name := range names(c) {
			if name != "" {
				t.Fatalf("cpu%d.%s = %q before EnableRace, want unset", c.ID, field, name)
			}
		}
	}
	k.EnableRace(race.New(k.Eng))
	for _, c := range k.CPUs() {
		for field, name := range names(c) {
			if e, ok := race.LookupVar(name); !ok || e.NameField != field {
				t.Errorf("cpu%d.%s = %q resolves to %+v, %v; want the %s entry", c.ID, field, name, e, ok, field)
			}
		}
	}
}

// TestOwnerCheckConfinesCPUState: a CPU's TLB generation and its ack wait
// belong to its own proc. A task on CPU 0 that reads or writes CPU 1's
// generation, or runs a shootdown whose ack wait is CPU 1's (Shoot told
// the initiator is CPU 1), fails the run naming both; reading the
// generation after Run returns is outside every proc and passes.
func TestOwnerCheckConfinesCPUState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		touch func(ctx *Ctx)
	}{
		{"LocalGen", func(ctx *Ctx) { ctx.K.CPU(1).LocalGen(ctx.MM()) }},
		{"SetLocalGen", func(ctx *Ctx) { ctx.K.CPU(1).SetLocalGen(ctx.MM(), 1) }},
		{"Shoot", func(ctx *Ctx) {
			ctx.K.SMP.Shoot(ctx.P, 1, mach.MaskOf(2), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, _ := newKernel(t, false)
			defer k.Eng.Shutdown()
			as := k.NewAddressSpace()
			k.CPU(0).Spawn(&Task{Name: tc.name, MM: as, Fn: tc.touch})
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), `kernel: cpu1 state touched from proc "cpu0"`) {
					t.Fatalf("run ended with %v, want the owner check naming cpu1 and proc cpu0", err)
				}
			}()
			k.Eng.Run()
		})
	}
	k, _ := newKernel(t, false)
	as := k.NewAddressSpace()
	k.CPU(0).Spawn(&Task{Name: "own", MM: as, Fn: func(ctx *Ctx) { ctx.CPU.SetLocalGen(as, 7) }})
	k.Eng.Run()
	if got := k.CPU(0).LocalGen(as); got != 7 {
		t.Fatalf("cpu0 generation after Run = %d, want 7", got)
	}
}
