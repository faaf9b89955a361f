package kernel

import (
	"fmt"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/obs"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// CPU is one logical processor's kernel context: its TLB, local APIC, run
// queue, loaded address space, TLB-generation bookkeeping, deferred-flush
// state and measurement counters.
type CPU struct {
	K   *Kernel
	ID  mach.CPU
	TLB *tlb.TLB
	// Ctrl is the local APIC.
	Ctrl *apic.Controller

	proc *sim.Proc
	// wake is broadcast on IRQ arrival, task enqueue and the ack of every
	// request waitRequests waits on; every blocking loop on this CPU waits
	// on it.
	wake *sim.Cond

	runq    []*Task
	curTask *Task
	// inUser is true while the current task executes user-mode code.
	inUser bool
	// lazy is the lazy-TLB indication initiators read to skip IPIs.
	lazy bool
	// curMM is the loaded address space (persists while idle: lazy TLB).
	curMM *mm.AddressSpace
	// localGen is this CPU's per-address-space TLB generation: entries of
	// an mm cached under its PCID are valid up to localGen[mm]. Mirrors
	// Linux's per-ASID ctx/tlb_gen tracking.
	localGen map[mm.ID]uint64

	// Deferred user-PCID flush state (PTI): either a merged selective
	// range flushed with INVLPG on return to user (§3.4 in-context
	// flushing), or a full deferred flush folded into the CR3 reload
	// (baseline Linux behaviour for full flushes).
	duStart, duEnd uint64
	duStridePages  uint64 // stride in 4 KiB units
	duValid        bool
	duFull         bool

	// Userspace-safe batching state (§4.2).
	batched        bool
	batchedLine    *cache.Line
	pendingBatched []func(p *sim.Proc)

	// lazyWork holds LATR-style deferred remote flushes (core.Config
	// LazyRemote): executed at the CPU's next kernel entry, with no IPI
	// and no initiator wait. See the extension notes in internal/core.
	lazyWork []func(p *sim.Proc)
	// LazyQueue fires with lazyWork's length after every change to it:
	// a flush queued, or the queue taken for draining. Observers track
	// the LATR staleness window from it instead of reading the queue,
	// whose every read the race model records as this CPU's.
	LazyQueue obs.Hook[int]

	// Race-variable names for this CPU's shared state, set when a
	// detector attaches (Kernel.EnableRace; see internal/race).
	runqVar, lazyVar, genVar, lazyqVar, batchedVar, batchqVar string

	// poll is what the CPU's active poll waits for, read by quiet, and
	// zero when none is active. Polls do not nest (startPoll checks it).
	// quietFn is c.quiet, bound once.
	poll    pollState
	quietFn func(signaled bool) bool

	// flush is the running FlushPages loop, read by its step; allocated
	// at the CPU's first FlushPages, since many CPUs never make one.
	flush *flushLoop

	// Measurement counters.

	// Interrupted accumulates cycles spent handling IRQs while a task was
	// running (the paper's responder metric).
	Interrupted uint64
	// IRQsHandled counts serviced interrupts.
	IRQsHandled uint64
	// DeferredFlushes counts user PTEs flushed at return-to-user.
	DeferredFlushes uint64
	// FullUserFlushes counts deferred full user-PCID flushes.
	FullUserFlushes uint64
}

func newCPU(k *Kernel, id mach.CPU) *CPU {
	tcfg := tlb.DefaultConfig()
	tcfg.FractureRule = k.Cfg.NestedPaging
	c := &CPU{
		K: k, ID: id,
		TLB:         tlb.New(tcfg),
		Ctrl:        k.Bus.Controller(id),
		wake:        k.Eng.NewCond(),
		localGen:    make(map[mm.ID]uint64),
		batchedLine: k.Dir.NewLine(),
	}
	c.Ctrl.SetNotify(func() { c.wake.Broadcast() })
	c.quietFn = c.quiet
	return c
}

// Proc returns the CPU's run-loop process (nil before Start).
func (c *CPU) Proc() *sim.Proc { return c.proc }

// CurrentMM returns the loaded address space (may be nil at boot).
func (c *CPU) CurrentMM() *mm.AddressSpace { return c.curMM }

// Lazy reports whether the CPU is idling in lazy-TLB mode. The lazy
// indication models a per-CPU word read by initiators with an atomic
// (READ_ONCE-style) load, so it carries a happens-before clock of its own.
func (c *CPU) Lazy() bool {
	c.K.Race.AtomicLoad(c.lazyVar)
	return c.lazy
}

// setLazy flips the lazy-TLB indication (an atomic store in the model).
func (c *CPU) setLazy(v bool) {
	c.K.Race.AtomicStore(c.lazyVar)
	c.lazy = v
}

// InUser reports whether the CPU is executing user-mode code.
func (c *CPU) InUser() bool { return c.inUser }

// checkOwner panics unless the running proc is this CPU's own, or no
// proc runs at all (code outside the simulation, such as a test reading
// state after Eng.Run returns). Every accessor of state only this CPU may
// touch calls it first, as Linux's flush_tlb_func asserts its context
// (lockdep_assert_irqs_disabled) instead of trusting its callers; the
// lockset analyzer requires the call at every cpu-confined site.
func (c *CPU) checkOwner() {
	if cur := c.K.Eng.Current(); cur != nil && cur != c.proc {
		panic(fmt.Sprintf("kernel: cpu%d state touched from proc %q", c.ID, cur.Name))
	}
}

// LocalGen returns this CPU's TLB generation for as. The per-CPU
// generation table is plain (unsynchronized) state: only code running on
// this CPU may touch it, which checkOwner enforces and the race detector
// checks.
func (c *CPU) LocalGen(as *mm.AddressSpace) uint64 {
	c.checkOwner()
	c.K.Race.ReadVar(c.genVar)
	return c.localGen[as.ID]
}

// SetLocalGen records that this CPU's TLB is synchronized with as up to
// gen. The shootdown responder calls it after flushing.
func (c *CPU) SetLocalGen(as *mm.AddressSpace, gen uint64) {
	c.checkOwner()
	c.K.Race.WriteVar(c.genVar)
	c.localGen[as.ID] = gen
}

// enterUser marks the transition to user mode. Every site that sets
// inUser funnels through it so the kernel's UserReturn hook sees all
// return-to-user transitions.
func (c *CPU) enterUser() {
	c.inUser = true
	// Return-to-user is the §4.2 backstop event: advance the CPU's vector
	// clock so later epochs are distinguishable from pre-return ones.
	c.K.Race.ReturnToUser()
	c.K.UserReturn.Emit(c)
}

// ResetCounters zeroes measurement counters (between benchmark phases).
func (c *CPU) ResetCounters() {
	c.Interrupted, c.IRQsHandled = 0, 0
	c.DeferredFlushes, c.FullUserFlushes = 0, 0
	c.TLB.ResetStats()
}

// --- Run loop and scheduling ---

// Spawn enqueues t to run on this CPU (tasks are pinned, as the paper's
// benchmarks pin threads with taskset).
func (c *CPU) Spawn(t *Task) {
	if t.Fn == nil || t.MM == nil {
		panic("kernel: task needs MM and Fn")
	}
	t.cpu = c
	t.doneCond = c.K.Eng.NewCond()
	if c.K.Race != nil {
		// The enqueue publishes the spawner's clock: everything the spawner
		// did before Spawn happens-before the task body, and (via the same
		// sync object, re-released at completion) before Join returns.
		t.hb = c.K.Race.NewSync("task:" + t.Name)
		c.K.Race.Release(t.hb)
	}
	c.K.Race.AtomicRMW(c.runqVar)
	c.runq = append(c.runq, t)
	c.wake.Broadcast()
}

func (c *CPU) startLoop() {
	c.proc = c.K.Eng.Go(fmt.Sprintf("cpu%d", c.ID), c.loop)
}

func (c *CPU) loop(p *sim.Proc) {
	for {
		c.ServiceIRQs(p)
		if len(c.runq) == 0 {
			if !c.Lazy() && c.curMM != nil {
				// Enter lazy-TLB mode: the idle loop keeps the old mm
				// loaded; initiators skip us. The indication is written
				// on the (layout-dependent) lazy line. The write yields,
				// so loop back and recheck before sleeping.
				c.setLazy(true)
				p.Delay(c.K.Dir.Write(c.ID, c.K.SMP.LazyLine(c.ID)))
				continue
			}
			if c.Ctrl.Deliverable() {
				continue
			}
			// No yield since the checks above: a wakeup cannot be lost.
			c.wake.Wait(p)
			continue
		}
		t := c.runq[0]
		c.runq = c.runq[1:]
		c.K.Race.AtomicRMW(c.runqVar)
		c.K.Race.Acquire(t.hb)
		if c.Lazy() {
			c.setLazy(false)
			p.Delay(c.K.Dir.Write(c.ID, c.K.SMP.LazyLine(c.ID)))
		}
		c.switchMM(p, t.MM, true)
		// Return-to-user fabric drain: pending async invalidations land
		// before the task's first user access.
		c.K.SMP.DrainFabric(p, c.ID)
		if c.K.Cfg.PTI {
			// Return-to-user after the switch: any deferred user-PCID
			// flushes (e.g. from the generation catch-up) execute before
			// the first user-mode access.
			c.runDeferredUserFlushes(p)
		}
		c.curTask = t
		c.enterUser()
		t.Fn(&Ctx{K: c.K, CPU: c, P: p, Task: t})
		c.inUser = false
		c.curTask = nil
		c.K.Race.Release(t.hb)
		t.done = true
		t.doneCond.Broadcast()
	}
}

// switchMM loads as, performing Linux's switch-in TLB-generation check:
// if PTEs changed while the address space was inactive here (we were lazy
// or running another mm and were skipped), the stale PCID-tagged entries
// are flushed now. wasIdle marks re-entry from the idle/lazy loop, which
// must recheck even for the same mm.
func (c *CPU) switchMM(p *sim.Proc, as *mm.AddressSpace, wasIdle bool) {
	same := c.curMM == as
	if !same {
		if prev := c.curMM; prev != nil {
			// Leaving prev: drop out of its cpumask. PCID-tagged entries
			// of prev may stay cached, so the switch-in path below (via
			// CatchUpGen on the next load) is what keeps them coherent.
			p.Delay(c.K.Dir.Atomic(c.ID, c.K.MMCpumaskLine(prev)))
			prev.ClearActive(c.ID)
		}
		if c.K.Cfg.DisablePCID {
			// No PCIDs (§2.1): the CR3 write flushes every non-global
			// entry; the new address space starts with a cold TLB.
			p.Delay(c.K.Cost.CR3WriteFlush)
			c.TLB.FlushAllNonGlobal()
		} else {
			p.Delay(c.K.Cost.CR3WriteNoFlush)
		}
		c.curMM = as
		p.Delay(c.K.Dir.Atomic(c.ID, c.K.MMCpumaskLine(as)))
		as.SetActive(c.ID)
		if c.K.Cfg.DisablePCID {
			// The flush synchronized us with every generation.
			c.SetLocalGen(as, as.Gen())
		} else if c.K.Fault.PCIDRecycle() {
			// Fault plane: the PCID allocator recycled this mm's contexts
			// while it was switched out, so its tagged entries are gone and
			// the generation state is cold — the switch pays a full reload
			// and the CatchUpGen below resynchronizes from zero. Coherence
			// is unaffected (entries are only removed).
			p.Delay(c.K.Cost.CR3WriteFlush)
			c.TLB.FlushPCID(as.KernelPCID)
			c.TLB.FlushPCID(as.UserPCID)
			c.SetLocalGen(as, 0)
		}
	}
	if !same || wasIdle {
		c.CatchUpGen(p, as)
	}
}

// CatchUpGen compares the CPU's local generation for as against the
// current mm generation and fully flushes the address space's PCIDs if
// stale. This is the mechanism that makes skipping lazy CPUs safe.
func (c *CPU) CatchUpGen(p *sim.Proc, as *mm.AddressSpace) {
	p.Delay(c.K.Dir.Read(c.ID, c.K.MMGenLine(as)))
	gen := as.Gen()
	if c.LocalGen(as) >= gen {
		return
	}
	c.FlushMM(p, as)
	p.Delay(c.K.Dir.Write(c.ID, c.K.SMP.GenLine(c.ID)))
	c.SetLocalGen(as, gen)
}

// FlushMM fully flushes as from this CPU's TLB (__native_flush_tlb): a
// CR3 write that drops the kernel PCID's entries. Under PTI the whole
// user PCID is flushed at the next return to user mode, folded into that
// CR3 reload (nearly free: baseline Linux behaviour for full flushes).
func (c *CPU) FlushMM(p *sim.Proc, as *mm.AddressSpace) {
	p.Delay(c.K.Cost.CR3WriteFlush)
	c.TLB.FlushPCID(as.KernelPCID)
	if c.K.Cfg.PTI {
		c.duFull, c.duValid = true, false
	}
}

// FlushPages invalidates pcid's translations of the pages from start up
// to end, stride bytes apart, in this CPU's TLB, charging cost cycles
// before each: the INVLPG (or INVPCID) loop of a ranged flush. It is the
// one per-page flush loop, and its steps run in the engine
// (sim.Proc.DelayEach), so a flush switches at most once. The loop's
// state lives on the CPU, so only the CPU's own proc may run it
// (checkOwner).
func (c *CPU) FlushPages(p *sim.Proc, pcid tlb.PCID, start, end, stride, cost uint64) {
	c.flushPages(p, pageFlush{pcid: pcid, start: start, stride: stride}, end, cost)
}

// pageFlush is a FlushPages loop: the pages from start, stride bytes
// apart, of pcid. A deferred loop is the return-to-user flush of a
// deferred user range, which counts each page in DeferredFlushes.
type pageFlush struct {
	pcid          tlb.PCID
	start, stride uint64
	deferred      bool
}

// flushLoop is the CPU's running pageFlush and the step that reads it,
// c.flushStep, bound once.
type flushLoop struct {
	pageFlush
	step func(i int)
}

func (c *CPU) flushPages(p *sim.Proc, f pageFlush, end, cost uint64) {
	c.checkOwner()
	if end <= f.start {
		return
	}
	if c.flush == nil {
		c.flush = &flushLoop{step: c.flushStep}
	}
	c.flush.pageFlush = f
	p.DelayEach(int((end-f.start+f.stride-1)/f.stride), cost, c.flush.step)
}

// flushStep is a FlushPages loop's step i: one page.
func (c *CPU) flushStep(i int) {
	f := &c.flush.pageFlush
	c.TLB.FlushPage(f.pcid, f.start+uint64(i)*f.stride)
	if f.deferred {
		c.DeferredFlushes++
	}
}

// --- Interrupt servicing ---

// QueueLazyWork defers fn to this CPU's next kernel entry (LATR-style
// asynchronous shootdown). Unlike batched sections there is no guarantee
// about user accesses in between — that is exactly the hazard the paper
// §2.3.2 describes, preserved here for the comparative experiments.
func (c *CPU) QueueLazyWork(fn func(p *sim.Proc)) {
	c.K.Race.AtomicRMW(c.lazyqVar)
	c.lazyWork = append(c.lazyWork, fn)
	c.LazyQueue.Emit(len(c.lazyWork))
	c.wake.Broadcast()
}

// DrainLazyWork runs queued lazy flushes; called at kernel-entry points.
func (c *CPU) DrainLazyWork(p *sim.Proc) {
	for len(c.lazyWork) > 0 {
		c.K.Race.AtomicRMW(c.lazyqVar)
		work := c.lazyWork
		c.lazyWork = nil
		c.LazyQueue.Emit(0)
		for _, fn := range work {
			fn(p)
		}
	}
}

// ServiceIRQs drains all deliverable interrupts, charging entry/exit costs
// and accounting interruption time against the running task.
func (c *CPU) ServiceIRQs(p *sim.Proc) {
	c.K.Race.AtomicLoad(c.lazyqVar)
	if len(c.lazyWork) > 0 && !c.inUser {
		// Kernel context reached: lazily deferred flushes run now.
		c.DrainLazyWork(p)
	}
	for {
		irq, ok := c.Ctrl.Take()
		if !ok {
			return
		}
		start := p.Now()
		// Fault plane: the responder took the interrupt but dispatch is
		// delayed (SMI, deep C-state exit, host preemption of a vCPU).
		if d := c.K.Fault.ResponderStall(); d > 0 {
			p.Delay(d)
		}
		fromUser := c.inUser
		c.inUser = false
		if fromUser {
			p.Delay(c.K.Cost.IRQEntryUser)
			if c.K.Cfg.PTI {
				p.Delay(c.K.Cost.PTITrampoline)
			}
		} else {
			p.Delay(c.K.Cost.IRQEntryKernel)
		}
		c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.IRQEnter,
			Vector: uint8(irq.Vector), Peer: irq.From, User: fromUser})
		// Any kernel entry is a LATR sweep point, and — under the async
		// tier — a whole-batch fabric drain point: the ring is popped and
		// applied before the vector dispatch below even looks at the CSQ.
		c.DrainLazyWork(p)
		c.K.SMP.DrainFabric(p, c.ID)
		switch irq.Vector {
		case apic.VectorCallFunction:
			c.K.SMP.HandleIPI(p, c.ID)
		case apic.VectorNMI:
			c.handleNMI(p)
		case apic.VectorReschedule:
			// Wakeup only; the run loop rechecks its queue.
		}
		p.Delay(c.K.Cost.IRQExit)
		if fromUser {
			// Return-to-user backstop drain: invalidations posted while
			// this IRQ ran must land before the first user access (the
			// PTI deferred-flush run below then covers any user-PCID
			// work the drain itself deferred).
			c.K.SMP.DrainFabric(p, c.ID)
			if c.K.Cfg.PTI {
				c.runDeferredUserFlushes(p)
				p.Delay(c.K.Cost.PTITrampoline)
			}
			c.enterUser()
		}
		c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.IRQExit})
		c.IRQsHandled++
		if c.curTask != nil {
			c.Interrupted += uint64(p.Now() - start)
		}
	}
}

// handleNMI models the NMI handler: before any user-space access it runs
// nmi_uaccess_okay, extended by the paper to also require that no TLB
// flushes are pending (§3.2), so an NMI arriving between an early ack and
// the actual flush cannot observe stale translations.
func (c *CPU) handleNMI(p *sim.Proc) {
	p.Delay(c.K.Cost.NMIHandler)
	// The check itself: a couple of per-CPU loads, negligible cost.
	_ = c.NMIUaccessOkay()
}

// NMIUaccessOkay reports whether NMI-context code may touch user memory:
// an mm must be loaded and no user-space TLB flushes may be pending.
func (c *CPU) NMIUaccessOkay() bool {
	return c.curMM != nil && !c.duValid && !c.duFull
}

// --- Blocking helpers (IRQ-responsive waits) ---

// waitRequests blocks until every request is acknowledged, servicing
// incoming IPIs meanwhile: the ack wait New hands smp, which every
// smp.Layer.Shoot ends in. An initiator spin-waiting with interrupts
// disabled would deadlock against concurrent shootdowns, exactly as in
// Linux, so the wait loop keeps IRQs flowing. It services this CPU's
// IRQs, so only this CPU's proc may wait here (checkOwner): smp reaches
// it through a func field, by the initiator's CPU id.
func (c *CPU) waitRequests(p *sim.Proc, reqs []*smp.Request) {
	c.checkOwner()
	if len(reqs) == 0 {
		return
	}
	for _, r := range reqs {
		r.SetWaker(c.wake)
	}
	// Recovery path (armed only when a fault plane is attached and not
	// deliberately broken): bound each sleep by the ack deadline; on
	// expiry with acks outstanding, smp's recovery step (AckTimedOut)
	// re-kicks, degrades once it has backed off far enough, and returns
	// the next deadline.
	// Termination: the fabric's drop-burst bound forces every
	// (burst+1)-th kick through, so some rekick eventually lands, the
	// responder drains its CSQ, and AllDone flips. Unarmed runs take
	// exactly the pre-recovery wait path, cycle-identically.
	armed := c.K.Fault.RecoveryArmed()
	timeouts := 0
	timeout := c.K.SMP.AckTimeout(timeouts)
	waitStart := p.Now()
	for {
		c.ServiceIRQs(p)
		p.Delay(c.K.Cost.SpinPoll)
		c.ServiceIRQs(p)
		// No yield between this check and the wait: acks cannot be lost.
		if smp.AllDone(reqs) {
			break
		}
		if c.Ctrl.Deliverable() {
			continue
		}
		if !armed {
			c.wake.Wait(p)
			continue
		}
		if c.wake.WaitTimeout(p, timeout) {
			continue
		}
		timeouts++
		timeout = c.K.SMP.AckTimedOut(p, c.ID, reqs, timeouts)
	}
	if armed {
		c.K.SMP.NoteAckStall(uint64(p.Now() - waitStart))
	}
	// Observing the acks is the initiator's acquire side of the IPI edge:
	// everything each responder did before acking happens-before here.
	for _, r := range reqs {
		c.K.SMP.ObserveDone(r)
	}
	// The final ack invalidated our copy of the CFD line; re-read it.
	p.Delay(c.K.Cost.SpinPoll)
}

// blockedIRQPollQuantum bounds how long a task blocked on a semaphore can
// go without servicing interrupts. A real task sleeping in down_read has
// IRQs enabled and handles IPIs immediately; the simulated wait wakes at
// least this often to drain them, preventing the classic deadlock where a
// semaphore holder waits for an ack from a CPU that is blocked on the same
// semaphore.
const blockedIRQPollQuantum = 800

// DownRead acquires sem for reading while keeping this CPU IRQ-responsive.
func (c *CPU) DownRead(p *sim.Proc, sem *mm.RWSem) {
	if !sem.TryDownRead() {
		c.downPoll(p, sem, sem.TryDownRead, sem.CanDownRead)
	}
}

// DownWrite acquires sem exclusively while keeping this CPU
// IRQ-responsive.
func (c *CPU) DownWrite(p *sim.Proc, sem *mm.RWSem) {
	if !sem.TryDownWrite() {
		c.downPoll(p, sem, sem.TryDownWrite, sem.CanDownWrite)
	}
}

// downPoll waits for a contended sem: it sleeps on the release broadcast
// for at most blockedIRQPollQuantum cycles at a time, services interrupts
// after every wakeup and retries try. A wakeup, by a release or the
// timeout, after which the proc would find no interrupt and could still
// not take sem re-arms in the engine (see quiet): on a wide machine most
// waiters a release broadcast wakes find the semaphore taken again.
func (c *CPU) downPoll(p *sim.Proc, sem *mm.RWSem, try, can func() bool) {
	sem.NoteContention()
	c.startPoll(pollState{done: can})
	for {
		sem.Changed().WaitPoll(p, blockedIRQPollQuantum, blockedIRQPollQuantum, c.quietFn)
		c.ServiceIRQs(p)
		if try() {
			c.poll = pollState{}
			return
		}
	}
}

// SpinUntil spins in user mode until done reports true, checking it every
// quantum cycles and servicing interrupts meanwhile: the simulated
// `while (!done) pause;` loop, with each quantum run as UserRun(quantum).
// done must read only plain workload state. A quantum's end at which the
// proc would find no interrupt and done still false re-arms in the engine
// (see quiet), with no coroutine switch. A zero quantum would never let
// time pass, so SpinUntil panics on it.
func (c *CPU) SpinUntil(p *sim.Proc, done func() bool, quantum uint64) {
	if quantum == 0 {
		panic("kernel: SpinUntil with a zero quantum")
	}
	c.startPoll(pollState{done: done, spin: true})
	for !done() {
		c.runInterruptible(p, quantum, c.quietFn)
	}
	c.poll = pollState{}
}

// startPoll makes ps the CPU's active poll, which its caller clears when
// the poll ends. Polls must not nest: a poll services interrupts and runs
// deferred flushes (ServiceIRQs), and one of those that polled in turn
// would replace the check the outer poll is parked with. No static check
// covers every such path (mhp roots only at Shoot's handlers, not at the
// deferred-flush closures ServiceIRQs drains), so startPoll panics,
// naming the CPU, when a poll is already active.
func (c *CPU) startPoll(ps pollState) {
	if c.poll.done != nil {
		panic(fmt.Sprintf("kernel: cpu%d started a poll inside another", c.ID))
	}
	c.poll = ps
}

// pollState is a parked poll's quiet check: what it waits for, and
// whether it is a SpinUntil quantum rather than a semaphore wait. The two
// skip different steps at a quiet wake: a semaphore wait skips one
// ServiceIRQs call, and re-waits a full period after a signal as after a
// timeout; a quantum's timeout skips two (ending the quantum and starting
// the next), and after a signal its re-wait keeps the quantum's deadline,
// which the engine's re-arm does not, so a spin's check declines signals.
type pollState struct {
	done func() bool
	spin bool
}

// quiet is the engine-side check when a poll's wait ends
// (sim.Cond.WaitPoll), told whether a signal or the timeout ended it. It
// holds when the polling proc, resumed, would find no interrupt
// deliverable, no lazy work due and the poll not done, and so would only
// wait again as the engine re-arms it (never after a signal to a spin;
// see pollState). It then records the lazyq loads of the ServiceIRQs calls
// the proc skips: the one after a semaphore wait, or the one ending a
// SpinUntil quantum and the one starting the next (see
// TestIdleServiceIRQsIsPure).
func (c *CPU) quiet(signaled bool) bool {
	if signaled && c.poll.spin || c.Ctrl.Deliverable() || len(c.lazyWork) > 0 && !c.inUser || c.poll.done() {
		return false
	}
	loads := 1
	if c.poll.spin {
		loads = 2
	}
	for range loads {
		c.K.Race.AtomicLoad(c.lazyqVar)
	}
	return true
}

// KernelRun executes d cycles of kernel-mode work (e.g. writeback page
// copies) with interrupts enabled: incoming IPIs are serviced as they
// arrive instead of waiting for the syscall to finish, exactly as kernel
// code outside irq-disabled sections behaves.
func (c *CPU) KernelRun(p *sim.Proc, d uint64) {
	if c.inUser {
		panic("kernel: KernelRun in user mode")
	}
	c.runInterruptible(p, d, nil)
}

// UserRun executes d cycles of user-mode computation, interruptible by
// IPIs; interruption time is accounted to the task, not to d.
func (c *CPU) UserRun(p *sim.Proc, d uint64) { c.runInterruptible(p, d, nil) }

// runInterruptible spends d cycles servicing every interrupt that arrives
// meanwhile; the time an interrupt takes does not count against d. A
// non-nil quiet is a spin's check: where it holds at the end of the d
// cycles, the engine starts the next d itself (sim.Cond.WaitPoll), and a
// wakeup then leaves the rest of that d to run.
func (c *CPU) runInterruptible(p *sim.Proc, d uint64, quiet func(signaled bool) bool) {
	remaining := d
	for remaining > 0 {
		c.ServiceIRQs(p)
		if c.Ctrl.Deliverable() {
			continue
		}
		remaining = c.wake.WaitPoll(p, remaining, d, quiet)
	}
	c.ServiceIRQs(p)
}
