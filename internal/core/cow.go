package core

import (
	"shootdown/internal/cache"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/smp"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// CoWFixup purges the stale translation after a copy-on-write break
// (ptep_clear_flush semantics). Remote CPUs with the address space active
// still need a shootdown — the paper's optimization targets only the
// *local* flush (§4.1): instead of INVLPG (which also dumps the page-walk
// cache) plus an eager user-PCID INVPCID, the kernel performs an atomic
// write access to the faulting address. The write cannot use the old
// write-protected PTE, so it walks the page tables and caches the new
// translation — purging the stale one and pre-warming the TLB in one step.
//
// The trick is skipped for executable PTEs, because the write access
// cannot purge ITLB entries.
func (f *Flusher) CoWFixup(ctx *kernel.Ctx, as *mm.AddressSpace, res mm.FaultResult) {
	c, p, k := ctx.CPU, ctx.P, f.K

	p.Delay(k.Dir.Atomic(c.ID, k.MMGenLine(as)))
	newGen := as.BumpGen()
	info := &FlushInfo{
		AS: as, Start: res.VA, End: res.VA + pagetable.PageSize4K,
		Stride: pagetable.Size4K, NewGen: newGen,
	}

	f.ShootBegin.Emit(Shootdown{c.ID, info})
	targets := f.pickTargets(ctx, as, info)
	earlyAck := f.Cfg.EarlyAck // CoW never frees page tables

	// The write trick never applies to executable PTEs (it cannot purge
	// ITLB entries); a stale local generation is handled inside cowLocal.
	useTrick := f.Cfg.AvoidCoWFlush && !res.Executable

	k.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.CoWEvent,
		Start: res.VA, Trick: useTrick, Exec: res.Executable})
	if targets.Empty() {
		f.cowLocal(ctx, as, info, useTrick)
		f.ShootEnd.Emit(Shootdown{c.ID, info})
		return
	}
	f.stats.Shootdowns++
	infoLine := f.cowInfoLine(ctx)
	if f.Cfg.ConcurrentFlush {
		k.SMP.Shoot(p, c.ID, targets, f.remoteFlushFn, info, earlyAck, infoLine, func([]*smp.Request) {
			f.cowLocal(ctx, as, info, useTrick)
		})
	} else {
		f.cowLocal(ctx, as, info, useTrick)
		k.SMP.Shoot(p, c.ID, targets, f.remoteFlushFn, info, earlyAck, infoLine, nil)
	}
	f.ShootEnd.Emit(Shootdown{c.ID, info})
}

func (f *Flusher) cowInfoLine(ctx *kernel.Ctx) *cache.Line {
	if f.Cfg.CachelineConsolidation {
		return nil
	}
	l := f.stackLine(ctx.CPU.ID)
	ctx.P.Delay(f.K.Dir.Write(ctx.CPU.ID, l))
	return l
}

// cowLocal performs the local-CPU part of the CoW fixup.
//
// Baseline (ptep_clear_flush): one INVLPG of the faulting address. The
// user-PCID copy needs no flush in either path: the faulting access itself
// invalidated it (hardware drops the faulting translation), which is why
// the paper's measured saving (~130 cycles) is the same in safe and unsafe
// mode — the optimization trades exactly one INVLPG (and its page-walk
// cache side effect) for an atomic write access.
func (f *Flusher) cowLocal(ctx *kernel.Ctx, as *mm.AddressSpace, info *FlushInfo, useTrick bool) {
	c, p, k := ctx.CPU, ctx.P, f.K
	if c.LocalGen(as)+1 != info.NewGen {
		// Concurrent flushes raced past us: take the generic catch-up
		// path (full flush).
		f.stats.CoWLocalFlushes++
		f.flushOnCPU(p, c, info, true)
		return
	}
	if !useTrick {
		f.stats.CoWLocalFlushes++
		p.Delay(k.Cost.Invlpg)
		c.TLB.FlushPage(as.KernelPCID, info.Start)
		// INVLPG dumps the page-structure cache (the side effect the
		// write trick avoids).
		c.TLB.InvalidateWalkCache()
		c.SetLocalGen(as, info.NewGen)
		p.Delay(k.Dir.Write(c.ID, k.SMP.GenLine(c.ID)))
		return
	}
	f.stats.CoWWriteTricks++
	// Atomic no-op read-modify-write at the faulting address: it cannot
	// corrupt concurrent writers and cannot translate through the old
	// write-protected PTE, so the CPU walks the page tables.
	p.Delay(k.Cost.UserWrite + k.Cost.AtomicRMW)
	c.TLB.FlushPage(as.KernelPCID, info.Start)
	// The walk is cheap: the page-walk cache was not invalidated (the
	// benefit over INVLPG) and the fault handler just touched this
	// subtree.
	cost := k.Cost.PageWalkPWCHit
	if k.Cfg.NestedPaging {
		cost *= k.Cost.PageWalkNestedFactor
	}
	c.TLB.WalkCacheLookup(info.Start)
	p.Delay(cost)
	// The new translation is now cached, about to be used by the
	// retried user access.
	if tr, err := as.PT.Walk(info.Start); err == nil {
		c.TLB.Fill(as.KernelPCID, tlb.Entry{
			VA: tr.VA, Frame: tr.Frame, Flags: tr.Flags, Size: tr.Size,
		})
	}
	// The user-PCID entry for this address was dropped by the faulting
	// access itself (hardware invalidates the faulting translation), so
	// no user-space flush is needed.
	c.SetLocalGen(as, info.NewGen)
	p.Delay(k.Dir.Write(c.ID, k.SMP.GenLine(c.ID)))
}
