package core

import (
	"fmt"

	"shootdown/internal/cache"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/obs"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
	"shootdown/internal/trace"
)

// FlushInfo is the work descriptor a shootdown carries (flush_tlb_info):
// the address space, the range, the target generation, and the flags the
// responders need to act safely.
type FlushInfo struct {
	// AS is the address space whose PTEs changed.
	AS *mm.AddressSpace
	// Start/End/Stride describe the changed range.
	Start, End uint64
	Stride     pagetable.Size
	// NewGen is the mm TLB generation this flush establishes.
	NewGen uint64
	// FreedTables forbids early acknowledgement (§3.2): page-table pages
	// were released, so speculative walks on a not-yet-flushed core could
	// touch freed memory.
	FreedTables bool
	// Full requests a full (non-ranged) flush, used when the range
	// exceeds the full-flush threshold.
	Full bool
}

// DegradeToFull widens the descriptor to a full flush (smp.Degradable).
// The recovery path invokes it when precise-range retries keep timing
// out; because the IPI path shares one *FlushInfo across all of a
// shootdown's requests, degrading once upgrades every responder that has
// not yet run, and a full flush subsumes any range at any generation.
func (fi *FlushInfo) DegradeToFull() { fi.Full = true }

var _ smp.Degradable = (*FlushInfo)(nil)

// Flusher implements kernel.Flusher: the baseline Linux shootdown protocol
// plus the paper's optimizations, selected by Config.
type Flusher struct {
	K   *kernel.Kernel
	Cfg Config

	stats Stats
	// stackInfo models the per-initiator flush_tlb_info that baseline
	// Linux keeps on the initiating CPU's stack (its own cacheline,
	// touched by every responder). Consolidation inlines it in the CFD.
	stackInfo []*cache.Line
	// batchedPending tracks, per CPU, how many deferred batched flushes
	// are queued; past 4 entries the queue degrades to a full flush
	// (§4.2: "we allocate 4 entries to keep track of the deferred
	// flushes").
	batchedPending []int
	// ipiMtx serializes entire shootdowns when SerializedIPIs is set
	// (FreeBSD's smp_ipi_mtx).
	ipiMtx *mm.RWSem

	// ShootBegin fires once per FlushAfter/CoWFixup after the flush
	// descriptor is built. ShootEnd fires when the flush obligation is
	// discharged from the initiator's point of view: after all acks for
	// an IPI shootdown, at batch completion for an async one, immediately
	// for local-only and lazy-deferred flushes.
	ShootBegin, ShootEnd obs.Hook[Shootdown]
}

// Shootdown identifies one flush obligation: its initiating CPU and its
// descriptor.
type Shootdown struct {
	CPU  mach.CPU
	Info *FlushInfo
}

// IPIMutex returns the SerializedIPIs global mutex (nil unless that
// extension is enabled); exposed so checkers can watch its lock order.
func (f *Flusher) IPIMutex() *mm.RWSem { return f.ipiMtx }

// NewFlusher builds the protocol implementation and sets the SMP layer's
// layout, fabric applier and mutant from cfg.
func NewFlusher(k *kernel.Kernel, cfg Config) (*Flusher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.InContextFlush && !k.Cfg.PTI {
		// Harmless but meaningless; normalize so stats stay comparable.
		cfg.InContextFlush = false
	}
	n := k.Topo.NumCPUs()
	f := &Flusher{
		K: k, Cfg: cfg,
		stackInfo:      make([]*cache.Line, n),
		batchedPending: make([]int, n),
	}
	if cfg.SerializedIPIs {
		f.ipiMtx = mm.NewRWSem(k.Eng, "smp_ipi_mtx")
	}
	if cfg.AsyncShootdown {
		k.SMP.SetDrainApplier(f.drainApply)
	} else {
		k.SMP.SetDrainApplier(nil)
	}
	k.SMP.SetLayout(cfg.CachelineConsolidation, cfg.HWMessageIPI)
	k.SMP.SetMutant(cfg.Mutant)
	f.EnableRace()
	return f, nil
}

// EnableRace (re)attaches the kernel's happens-before checker to the
// protocol-owned synchronization objects (the SerializedIPIs mutex).
// NewFlusher calls it; call it again if the detector is installed after
// the flusher was built (e.g. from a boot hook).
func (f *Flusher) EnableRace() {
	if f.ipiMtx != nil {
		f.ipiMtx.EnableRace(f.K.Race)
	}
}

// Stats returns a snapshot of the protocol counters.
func (f *Flusher) Stats() Stats { return f.stats }

// BatchingEnabled implements kernel.Flusher.
func (f *Flusher) BatchingEnabled() bool { return f.Cfg.UserspaceBatching }

// ResetStats zeroes the counters.
func (f *Flusher) ResetStats() { f.stats = Stats{} }

func (f *Flusher) stackLine(cpu mach.CPU) *cache.Line {
	if f.stackInfo[cpu] == nil {
		f.stackInfo[cpu] = f.K.Dir.NewLine()
	}
	return f.stackInfo[cpu]
}

// FlushAfter implements flush_tlb_mm_range: it bumps the mm generation,
// picks targets (skipping lazy CPUs and, optionally, batched-mode CPUs),
// and runs the local and remote flushes in the configured order.
func (f *Flusher) FlushAfter(ctx *kernel.Ctx, as *mm.AddressSpace, fr mm.FlushRange) {
	if fr.Empty() {
		return
	}
	c, p, k := ctx.CPU, ctx.P, f.K

	// inc_mm_tlb_gen: an atomic on the mm's generation cacheline.
	p.Delay(k.Dir.Atomic(c.ID, k.MMGenLine(as)))
	newGen := as.BumpGen()

	// Linux's ceiling check uses the range span, not the changed-PTE
	// count: (end - start) >> stride_shift vs tlb_single_page_flush_ceiling.
	spanPages := (fr.End - fr.Start) / fr.Stride.Bytes()
	info := &FlushInfo{
		AS: as, Start: fr.Start, End: fr.End, Stride: fr.Stride,
		NewGen: newGen, FreedTables: fr.FreedTables,
		Full: spanPages > kernel.FullFlushThreshold,
	}

	k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.ShootBegin, MM: uint64(as.ID), Gen: newGen,
		Start: info.Start, End: info.End, Full: info.Full, Freed: info.FreedTables})
	f.ShootBegin.Emit(Shootdown{c.ID, info})
	targets := f.pickTargets(ctx, as, info)

	earlyAck := f.Cfg.EarlyAck && !info.FreedTables
	if f.Cfg.EarlyAck && info.FreedTables {
		if f.Cfg.Mutant == fault.MutantEarlyAck {
			// Deliberately unsafe: ack before flushing tables about to be freed.
			earlyAck = true
		} else {
			f.stats.EarlyAckSuppressed++
		}
	}

	if targets.Empty() {
		f.stats.LocalOnly++
		f.localFlush(ctx, info, nil)
		f.notePTFree(info)
		f.ShootEnd.Emit(Shootdown{c.ID, info})
		return
	}

	if f.Cfg.AsyncShootdown {
		if !info.FreedTables {
			f.asyncFlush(ctx, info, targets)
			return
		}
		// Freed page tables must not be reclaimed until every responder
		// flushed; deferring that through the fabric is never safe, so
		// these flushes stay on the synchronous ack path below (which is
		// also what keeps the §3.2 ack-ordering proof intact).
		f.stats.AsyncSyncFallbacks++
	}

	if f.Cfg.LazyRemote {
		// LATR-style extension: local flush now; remote flushes queued to
		// run at each target's next kernel entry. No IPI, no wait — and
		// no guarantee the target will not use a stale translation first
		// (the paper's §2.3.2 criticism; demonstrated by tests).
		f.localFlush(ctx, info, nil)
		for _, cpu := range targets.CPUs() {
			rc := k.CPU(cpu)
			work := *info
			rc.QueueLazyWork(func(p *sim.Proc) {
				if rc.CurrentMM() != work.AS {
					return
				}
				f.flushOnCPU(p, rc, &work, false)
			})
			f.stats.LazyDeferred++
		}
		f.notePTFree(info)
		f.ShootEnd.Emit(Shootdown{c.ID, info})
		return
	}
	f.stats.Shootdowns++

	if f.Cfg.SerializedIPIs {
		// FreeBSD's smp_ipi_mtx: one shootdown in flight machine-wide.
		c.DownWrite(p, f.ipiMtx)
		defer f.ipiMtx.UpWrite(p)
	}

	var infoLine *cache.Line
	if !f.Cfg.CachelineConsolidation {
		// Baseline layout: write the flush info to its own line before
		// queueing; every responder will read it.
		infoLine = f.stackLine(c.ID)
		p.Delay(k.Dir.Write(c.ID, infoLine))
	}

	if f.Cfg.ConcurrentFlush {
		// §3.1: IPIs first; the local flush overlaps their delivery.
		k.SMP.Shoot(p, c.ID, targets, f.remoteFlushFn, info, earlyAck, infoLine, func(reqs []*smp.Request) {
			k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.IPISent, Targets: targets, Early: earlyAck})
			f.localFlush(ctx, info, reqs)
			k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.LocalFlush, Text: "done (overlapped with IPIs)"})
		})
	} else {
		// Baseline: local flush, then IPIs, then synchronous wait.
		f.localFlush(ctx, info, nil)
		k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.LocalFlush, Text: "done (before IPIs)"})
		k.SMP.Shoot(p, c.ID, targets, f.remoteFlushFn, info, earlyAck, infoLine, func([]*smp.Request) {
			k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.IPISent, Targets: targets, Early: earlyAck})
		})
	}
	k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.ShootEnd, Text: "all acks received"})
	f.notePTFree(info)
	f.ShootEnd.Emit(Shootdown{c.ID, info})
}

// asyncFlush is the fabric tier of FlushAfter: post the range to every
// target's invalidation ring, kick once, flush locally, return. Nobody
// spins; the batch completion (fired from the last-acking responder's
// drain) discharges the initiator's flush obligation. A flush that frees
// page tables never comes here: the initiator must not return before
// every responder flushed.
func (f *Flusher) asyncFlush(ctx *kernel.Ctx, info *FlushInfo, targets mach.CPUMask) {
	if info.FreedTables {
		panic("core: freed page tables must take the synchronous ack path, not the fabric")
	}
	c, p, k := ctx.CPU, ctx.P, f.K
	f.stats.Shootdowns++
	f.stats.AsyncShootdowns++
	from := c.ID
	inv := smp.Inval{
		AS: info.AS, ASID: uint32(info.AS.ID),
		Start: info.Start, End: info.End, Stride: info.Stride.Bytes(),
		GenLo: info.NewGen, GenHi: info.NewGen,
		Full: info.Full,
	}
	k.SMP.PostAsync(p, from, targets, inv, func(*sim.Proc) {
		// Runs in the last-acking responder's context; observational
		// bookkeeping only.
		k.Trace.Emit(trace.Event{CPU: from, Kind: trace.ShootEnd, Text: "async batch acked"})
		f.ShootEnd.Emit(Shootdown{from, info})
	})
	k.Trace.Emit(trace.Event{CPU: from, Kind: trace.IPISent, Targets: targets, Fabric: true})
	f.localFlush(ctx, info, nil)
	k.Trace.Emit(trace.Event{CPU: from, Kind: trace.LocalFlush, Text: "done (fabric in flight)"})
}

// drainApply is the batch applier the fabric calls from DrainFabric, on
// the draining CPU's proc. The real tier applies the invalidations
// before the fabric acks. fault.MutantAckBeforeDrain instead defers the work
// to lazy kernel-entry time, so the ack — and the batch completion that
// closes the flush-obligation window — fires with the stale entries
// still live; the sanitizer catches the resulting user-mode hit.
func (f *Flusher) drainApply(p *sim.Proc, cpu mach.CPU, batch []smp.Inval) {
	rc := f.K.CPU(cpu)
	if f.Cfg.Mutant == fault.MutantAckBeforeDrain {
		rc.QueueLazyWork(func(p *sim.Proc) { f.applyBatch(p, rc, batch) })
		return
	}
	f.applyBatch(p, rc, batch)
}

// applyBatch applies a drained fabric batch entry by entry, in posting
// order — which is what lets applyInval's ranged path trust each
// entry's generation run.
func (f *Flusher) applyBatch(p *sim.Proc, rc *kernel.CPU, batch []smp.Inval) {
	for i := range batch {
		f.applyInval(p, rc, &batch[i])
	}
}

// applyInval is the fabric counterpart of flushOnCPU. The GenLo/GenHi
// contiguity invariant (smp.Inval) replaces the sync path's exact
// one-generation check: an entry whose run starts at or below local+1
// can be applied as a ranged flush landing exactly on GenHi, even when
// the mm generation has moved past it — the newer generations are later
// entries of the same drain (or later batches) and follow in order.
func (f *Flusher) applyInval(p *sim.Proc, rc *kernel.CPU, inv *smp.Inval) {
	k := f.K
	if inv.AS == nil {
		// flush_all collapse (ring overflow or watchdog degrade): no
		// address-space precision left, so drop every non-global entry
		// like a PCID-less CR3 write. Local generations stay put; each
		// mm's next flush full-catches-up, which the dropped entries'
		// generations already demanded.
		p.Delay(k.Cost.CR3WriteFlush)
		rc.TLB.FlushAllNonGlobal()
		f.stats.RemoteFull++
		k.Trace.Emit(trace.Event{CPU: rc.ID, Kind: trace.RemoteFlush, Text: "fabric flush_all"})
		return
	}
	as := inv.AS.(*mm.AddressSpace)
	if rc.CurrentMM() != as {
		// Switched out since posting; the switch-in generation check
		// flushes before the mm's entries become reachable again.
		f.stats.RemoteSkipped++
		k.Trace.Emit(trace.Event{CPU: rc.ID, Kind: trace.RemoteFlush, Text: "fabric skip: mm not loaded"})
		return
	}
	p.Delay(k.Dir.Read(rc.ID, k.MMGenLine(as)))
	mmGen := as.Gen()
	local := rc.LocalGen(as)
	switch {
	case local >= inv.GenHi:
		// A prior full catch-up already covered the whole run.
		f.stats.RemoteSkipped++
	case !inv.Full && local+1 >= inv.GenLo:
		info := &FlushInfo{AS: as, Start: inv.Start, End: inv.End,
			Stride: strideSize(inv.Stride), NewGen: inv.GenHi}
		f.rangedFlush(p, rc, info, false)
		rc.SetLocalGen(as, inv.GenHi)
		f.stats.RemoteSelective++
	default:
		// A generation gap below the run (a dropped kick's entries were
		// collapsed away, or the run started above local+1): full
		// catch-up, straight to the current mm generation.
		rc.FlushMM(p, as)
		rc.SetLocalGen(as, mmGen)
		f.stats.RemoteFull++
	}
	p.Delay(k.Dir.Write(rc.ID, k.SMP.GenLine(rc.ID)))
	k.Trace.Emit(trace.Event{CPU: rc.ID, Kind: trace.RemoteFlush,
		MM: uint64(as.ID), Gen: inv.GenHi, Fabric: true})
}

// strideSize maps an Inval's stride in bytes back to the page size.
func strideSize(bytes uint64) pagetable.Size {
	if bytes == pagetable.PageSize2M {
		return pagetable.Size2M
	}
	return pagetable.Size4K
}

// notePTFree reports the initiator's reclamation of freed page-table pages
// to the race detector. It models free_pgtables: the freed nodes are plain
// (unsynchronized) memory, so every responder's speculative walk of them
// (readPTFree) must happen-before this write — the exact ordering the §3.2
// early-ack suppression exists to guarantee.
func (f *Flusher) notePTFree(info *FlushInfo) {
	if f.K.Race == nil || !info.FreedTables {
		return
	}
	f.K.Race.WriteVar(fmt.Sprintf("mm%d.pt-nodes", info.AS.ID))
}

// readPTFree reports a responder's potential speculative walk of the
// page-table pages a FreedTables flush is about to release.
func (f *Flusher) readPTFree(info *FlushInfo) {
	if f.K.Race == nil || !info.FreedTables {
		return
	}
	f.K.Race.ReadVar(fmt.Sprintf("mm%d.pt-nodes", info.AS.ID))
}

// pickTargets reads the mm cpumask and per-CPU indications to build the
// IPI target set, charging every cacheline read the kernel would make.
func (f *Flusher) pickTargets(ctx *kernel.Ctx, as *mm.AddressSpace, info *FlushInfo) mach.CPUMask {
	c, p, k := ctx.CPU, ctx.P, f.K
	p.Delay(k.Dir.Read(c.ID, k.MMCpumaskLine(as)))
	var targets mach.CPUMask
	for _, cpu := range as.ActiveCPUs().CPUs() {
		if cpu == c.ID {
			continue
		}
		rc := k.CPU(cpu)
		// Lazy-mode check: a read of the (layout-dependent) lazy line.
		p.Delay(k.Dir.Read(c.ID, k.SMP.LazyLine(cpu)))
		if rc.Lazy() {
			f.stats.LazySkips++
			k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.TargetSkipped, Peer: cpu, Text: "lazy"})
			continue
		}
		if f.Cfg.UserspaceBatching {
			p.Delay(k.Dir.Read(c.ID, rc.BatchedLine()))
			if rc.InBatchedSyscall() {
				f.queueBatched(rc, info)
				f.stats.BatchedSkips++
				k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.TargetSkipped, Peer: cpu, Text: "in batched syscall"})
				continue
			}
		}
		targets.Set(cpu)
		k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.TargetPicked, Peer: cpu})
	}
	return targets
}

// remoteFlushFn runs on a responder in IRQ context (flush_tlb_func).
func (f *Flusher) remoteFlushFn(p *sim.Proc, cpu mach.CPU, payload any) {
	info := payload.(*FlushInfo)
	rc := f.K.CPU(cpu)
	if rc.CurrentMM() != info.AS {
		// The mm was switched out since targeting; its PCID entries stay
		// cached but unreachable, and the switch-in generation check will
		// flush them before use.
		f.stats.RemoteSkipped++
		f.K.Trace.Emit(trace.Event{CPU: cpu, Kind: trace.RemoteFlush, Text: "skipped: mm not loaded"})
		return
	}
	// Until the flush completes, this CPU's TLB may still walk the
	// about-to-be-freed page-table pages.
	f.readPTFree(info)
	f.flushOnCPU(p, rc, info, false)
	f.K.Trace.Emit(trace.Event{CPU: cpu, Kind: trace.RemoteFlush, MM: uint64(info.AS.ID), Gen: info.NewGen})
}

// localFlush performs the initiator-side flush. reqs is non-nil only under
// concurrent flushing, enabling the §3.4 interaction (keep flushing user
// PTEs until the first ack arrives).
func (f *Flusher) localFlush(ctx *kernel.Ctx, info *FlushInfo, reqs []*smp.Request) {
	c, p := ctx.CPU, ctx.P
	f.flushOnCPU(p, c, info, true)
	if reqs != nil {
		f.flushUserWhileWaiting(ctx, info, reqs)
	}
}

// flushOnCPU is the shared flush body (flush_tlb_func_common): generation
// comparison decides between skip, ranged flush, and full catch-up.
func (f *Flusher) flushOnCPU(p *sim.Proc, rc *kernel.CPU, info *FlushInfo, initiator bool) {
	as := info.AS
	k := f.K

	// Read the mm generation (it may have advanced past info.NewGen
	// during a flush storm).
	p.Delay(k.Dir.Read(rc.ID, k.MMGenLine(as)))
	mmGen := as.Gen()
	local := rc.LocalGen(as)

	switch {
	case local >= info.NewGen:
		// Someone already flushed through this generation here (a prior
		// full catch-up): nothing to do. This is the storm-time fast path
		// that erodes the optimizations' benefit in §5.2.
		if !initiator {
			f.stats.RemoteSkipped++
		}
		return
	case !info.Full && local+1 == info.NewGen && info.NewGen == mmGen:
		// Exactly one generation behind and the range is known: ranged
		// flush.
		f.rangedFlush(p, rc, info, initiator)
		rc.SetLocalGen(as, info.NewGen)
		if !initiator {
			f.stats.RemoteSelective++
		}
	default:
		// Catch up with a full flush.
		rc.FlushMM(p, as)
		rc.SetLocalGen(as, mmGen)
		if !initiator {
			f.stats.RemoteFull++
		}
	}
	// Update the per-CPU TLB state (the write that false-shares with the
	// lazy indication under the baseline layout, §3.3).
	p.Delay(k.Dir.Write(rc.ID, k.SMP.GenLine(rc.ID)))
}

// rangedFlush invalidates the PTEs of info's range on rc: INVLPG for the
// kernel PCID, then the user PCID per configuration — eager INVPCID
// (baseline), or deferred to kernel exit (in-context, §3.4).
func (f *Flusher) rangedFlush(p *sim.Proc, rc *kernel.CPU, info *FlushInfo, initiator bool) {
	as := info.AS
	k := f.K
	if k.Cfg.NestedPaging && k.Cfg.ParavirtFractureHint &&
		info.End-info.Start > uint64(info.Stride.Bytes()) && rc.TLB.Fractured() {
		// §7 future work: the host told us fracturing may happen, so each
		// selective flush would escalate to a full flush anyway — issue
		// one full flush up front instead of N useless INVLPGs.
		f.stats.ParavirtFullFlushes++
		rc.FlushMM(p, as)
		return
	}
	stride := info.Stride.Bytes()
	rc.FlushPages(p, as.KernelPCID, info.Start, info.End, stride, k.Cost.Invlpg)
	// INVLPG flushes the whole page-structure cache as a side effect.
	rc.TLB.InvalidateWalkCache()

	if !k.Cfg.PTI {
		return
	}
	if f.Cfg.InContextFlush {
		// §3.4: record the user range; it is flushed with INVLPG when the
		// user address space becomes current. The initiator may consume
		// part of it while waiting for acks (flushUserWhileWaiting).
		rc.DeferUserFlush(info.Start, info.End, info.Stride)
	} else {
		// Baseline: eagerly invalidate the user PCID with INVPCID, which
		// is slower per entry and does not touch the page-walk cache.
		rc.FlushPages(p, as.UserPCID, info.Start, info.End, stride, k.Cost.InvpcidSingle)
	}
}

// flushUserWhileWaiting implements the §3.4/§3.1 interaction: while the
// initiator's IPIs are in flight, its spare cycles flush deferred user
// PTEs with INVLPG; whatever remains when the first ack arrives stays
// deferred to kernel exit.
func (f *Flusher) flushUserWhileWaiting(ctx *kernel.Ctx, info *FlushInfo, reqs []*smp.Request) {
	if !f.Cfg.InContextFlush {
		return
	}
	c, p := ctx.CPU, ctx.P
	as := info.AS
	flushed := false
	for !smp.AnyDone(reqs) {
		start, ok := c.PendingUserFlushStart()
		if !ok {
			break
		}
		p.Delay(f.K.Cost.Invlpg)
		c.TLB.FlushPage(as.UserPCID, start)
		c.ConsumeDeferredUserPages(1)
		f.stats.UserPTEsFlushedWhileWaiting++
		flushed = true
	}
	if flushed {
		// These INVLPGs also dumped the page-structure cache.
		c.TLB.InvalidateWalkCache()
		p.Delay(f.K.Cost.Lfence)
	}
}

// queueBatched defers info's flush to rc's batched-section exit instead of
// sending an IPI (§4.2). Beyond 4 queued entries the deferral degrades to
// a full flush.
func (f *Flusher) queueBatched(rc *kernel.CPU, info *FlushInfo) {
	cpu := rc.ID
	f.batchedPending[cpu]++
	work := *info
	if f.batchedPending[cpu] > 4 {
		f.stats.BatchedOverflows++
		work.Full = true
	}
	rc.QueueBatchedFlush(func(p *sim.Proc) {
		f.batchedPending[cpu]--
		if rc.CurrentMM() != work.AS {
			return
		}
		f.flushOnCPU(p, rc, &work, false)
	})
}
