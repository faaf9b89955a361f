package kernel

import (
	"shootdown/internal/cache"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/trace"
)

// This file implements the return-to-user deferred flush machinery:
//
//   - the baseline Linux behaviour where a *full* user-PCID flush is
//     deferred and folded into the CR3 reload on kernel exit, and
//   - the paper's in-context flushing (§3.4), where *selective* user-PCID
//     flushes are also deferred and executed with INVLPG once the user
//     address space is current, instead of eagerly with the slower
//     INVPCID.
//
// It also holds the per-CPU state for userspace-safe batching (§4.2).

// DeferUserFlush records a selective user-PCID flush to run at the next
// return to user mode. Multiple pending flushes merge into one range; if
// the merged range exceeds the full-flush threshold, the deferral
// escalates to a deferred full flush (paper §3.4).
func (c *CPU) DeferUserFlush(start, end uint64, stride pagetable.Size) {
	if c.duFull {
		return
	}
	if !c.duValid {
		c.duValid = true
		c.duStart, c.duEnd = start, end
		c.duStridePages = stride.Bytes() / pagetable.PageSize4K
	} else {
		if start < c.duStart {
			c.duStart = start
		}
		if end > c.duEnd {
			c.duEnd = end
		}
		if s := stride.Bytes() / pagetable.PageSize4K; s != c.duStridePages {
			// Mixed strides: give up on a precise range.
			c.duFull = true
			c.duValid = false
			return
		}
	}
	pages := (c.duEnd - c.duStart) / (c.duStridePages * pagetable.PageSize4K)
	if pages > FullFlushThreshold {
		c.duFull = true
		c.duValid = false
	}
}

// HasPendingUserFlush reports whether any user-PCID flush is pending.
func (c *CPU) HasPendingUserFlush() bool { return c.duValid || c.duFull }

// PendingUserFlushStart returns the first page of the merged deferred
// selective range, if one is pending (used by the §3.4 interaction: the
// initiator keeps flushing user PTEs from the front of this range while
// waiting for the first ack).
func (c *CPU) PendingUserFlushStart() (start uint64, ok bool) {
	if !c.duValid {
		return 0, false
	}
	return c.duStart, true
}

// ConsumeDeferredUserPages removes up to n pages from the front of the
// pending selective range, returning how many were taken. The §3.4
// interaction uses this: pages flushed eagerly while waiting for acks no
// longer need flushing at kernel exit.
func (c *CPU) ConsumeDeferredUserPages(n uint64) uint64 {
	if !c.duValid || n == 0 {
		return 0
	}
	strideBytes := c.duStridePages * pagetable.PageSize4K
	avail := (c.duEnd - c.duStart) / strideBytes
	if n > avail {
		n = avail
	}
	c.duStart += n * strideBytes
	if c.duStart >= c.duEnd {
		c.duValid = false
	}
	return n
}

// runDeferredUserFlushes executes pending user-PCID invalidations while
// switching back to the user address space. Selective ranges use INVLPG
// (cheaper than INVPCID, the whole point of §3.4) followed by an LFENCE to
// close the Spectre-v1 window; a deferred full flush rides the CR3 reload.
func (c *CPU) runDeferredUserFlushes(p *sim.Proc) {
	if !c.K.Cfg.PTI {
		c.duValid, c.duFull = false, false
		return
	}
	as := c.curMM
	if c.duFull {
		// CR3 is reloaded without the NOFLUSH bit: only the marginal cost
		// over the mandatory reload is charged.
		if c.K.Cost.CR3WriteFlush > c.K.Cost.CR3WriteNoFlush {
			p.Delay(c.K.Cost.CR3WriteFlush - c.K.Cost.CR3WriteNoFlush)
		}
		if as != nil {
			c.TLB.FlushPCID(as.UserPCID)
		}
		c.FullUserFlushes++
		c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.DeferredFlush, Full: true})
		c.duFull = false
		c.duValid = false
		return
	}
	if !c.duValid {
		return
	}
	strideBytes := c.duStridePages * pagetable.PageSize4K
	for va := c.duStart; va < c.duEnd; va += strideBytes {
		p.Delay(c.K.Cost.Invlpg)
		if as != nil {
			c.TLB.FlushPage(as.UserPCID, va)
		}
		c.DeferredFlushes++
	}
	// INVLPG dumps the page-structure cache as a side effect.
	c.TLB.InvalidateWalkCache()
	// Spectre-v1 guard on the flush loop (§3.4).
	p.Delay(c.K.Cost.Lfence)
	c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.DeferredFlush, Start: c.duStart, End: c.duEnd})
	c.duValid = false
}

// --- Userspace-safe batching (§4.2) ---

// BatchedLine returns the cacheline initiators read to learn whether this
// CPU is inside a batched-mode system call.
func (c *CPU) BatchedLine() *cache.Line { return c.batchedLine }

// InBatchedSyscall reports whether the CPU is inside a batched-mode
// syscall, during which it is guaranteed not to touch user mappings. The
// indication word is read by initiators with an atomic load in the model.
func (c *CPU) InBatchedSyscall() bool {
	c.K.Race.AtomicLoad(c.batchedVar)
	return c.batched
}

// EnterBatchedSection marks the CPU as inside a batched-mode syscall.
// Initiators may then skip IPIs to it, queueing deferred flush work
// instead.
func (c *CPU) EnterBatchedSection(p *sim.Proc) {
	c.K.Race.AtomicStore(c.batchedVar)
	c.batched = true
	p.Delay(c.K.Dir.Write(c.ID, c.batchedLine))
}

// ExitBatchedSection runs all queued deferred flush work and clears the
// indication. It must be called before the syscall returns to user mode —
// the memory barrier piggy-backed on the mmap_sem release in the paper.
func (c *CPU) ExitBatchedSection(p *sim.Proc) {
	for len(c.pendingBatched) > 0 {
		c.K.Race.AtomicRMW(c.batchqVar)
		work := c.pendingBatched
		c.pendingBatched = nil
		for _, fn := range work {
			fn(p)
		}
	}
	c.K.Race.AtomicStore(c.batchedVar)
	c.batched = false
	p.Delay(c.K.Dir.Write(c.ID, c.batchedLine))
}

// QueueBatchedFlush appends deferred flush work another CPU installed for
// us while we were in a batched section. The closure runs on this CPU at
// ExitBatchedSection, charging its own costs.
func (c *CPU) QueueBatchedFlush(fn func(p *sim.Proc)) {
	c.K.Race.AtomicRMW(c.batchqVar)
	c.pendingBatched = append(c.pendingBatched, fn)
}
