// The asynchronous shootdown fabric: per-CPU bounded rings of pending
// invalidation ranges, drained in whole batches by the responder and
// acknowledged by sequence number, so initiators enqueue, kick once, and
// return without spinning (production pattern: charmos mem/tlb.c,
// ROADMAP item 1).
//
// Protocol, per target CPU:
//
//   - the initiator appends an Inval to the target's ring with one
//     atomic RMW on the ring head line (llist-style), coalescing into
//     the previous entry when the address space, stride and generation
//     run allow it; a full ring collapses to the flush_all flag instead
//     of blocking (graceful degradation, counted);
//   - each post takes the next per-target sequence number; the batch
//     owes one ack per target and completes when every target's acked
//     sequence has reached the sequence it was posted: each drain counts
//     its ack off the batches whose sequence for it the drain covers, so
//     no ack rescans the outstanding list;
//   - the target drains the *whole* ring at IRQ entry and return-to-user
//     (one RMW pops everything), applies the batch through the
//     kernel-registered applier, then stores the highest observed
//     sequence to its ack line — ack-after-apply is the invariant the
//     fault.MutantAckBeforeDrain variant violates and the sanitizer catches;
//   - a lost kick leaves the acked sequence lagging the posted one; the
//     watchdog proc (armed only under an injected-fault schedule with
//     recovery enabled) detects the generation gap at the ack deadline
//     (AckTimeout), re-kicks with the sync tier's backoff, and after
//     MaxKickRetries degrades the target's ring to flush_all — the one
//     recovery ladder (see AckTimedOut) applied to batched acks.
//
// Happens-before edges mirror the sync protocol: post releases the
// target's ring sync (the drain acquires it: everything before the post
// is visible to the applier), and the ack releases the target's ack
// sync (batch completion acquires every target's: the initiator-side
// completion callback sees all responder flushes).
package smp

import (
	"fmt"
	"slices"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// RingSize bounds each CPU's pending-invalidation ring. Overflow never
// blocks the initiator: it collapses the ring to a full flush.
const RingSize = 16

// Inval is one pending invalidation range in a CPU's ring. The smp
// layer sits below mm, so the address space travels as an opaque tag
// (the applier knows the concrete type) plus its ID for coalescing.
type Inval struct {
	// AS is the initiator's address-space handle (opaque here).
	AS any
	// ASID is the address space's stable ID; entries coalesce only
	// within one address space.
	ASID uint32
	// Start and End delimit the virtual range; Stride is the PTE
	// granularity in bytes.
	Start, End, Stride uint64
	// GenLo and GenHi are the mm TLB generations this entry covers:
	// every generation in [GenLo, GenHi] changed only pages inside
	// [Start, End), so applying the range advances the target's local
	// generation to GenHi exactly.
	GenLo, GenHi uint64
	// Full requests a full TLB flush (span over threshold, or the
	// ring's flush_all collapse).
	Full bool
}

// fabricCPU is one CPU's invalidation ring. The ring head (entries,
// posted sequence, flush_all flag) lives on ringLine — one contended
// line per target, versus the sync protocol's CFD+CSQ pair — and the
// acked sequence lives on ackLine, written by the responder and read by
// the watchdog's gap check.
type fabricCPU struct {
	ringLine *cache.Line
	ackLine  *cache.Line

	fabRing     []Inval
	fabPostSeq  uint64
	fabAckSeq   uint64
	fabFlushAll bool

	// ringSync/ackSync are the post→drain and ack→completion edges, the
	// *Var fields the race variables' names; set when a detector attaches.
	ringSync, ackSync                 *race.Sync
	ringVar, postVar, ackVar, fullVar string
}

// AsyncBatch tracks one posted batch until every target acks.
type AsyncBatch struct {
	from mach.CPU
	// targets is ascending (CPUMask order), so a drain finds its CPU by
	// binary search; seqs[i] is the sequence posted to targets[i].
	targets []mach.CPU
	seqs    []uint64
	// owed counts the targets whose acked sequence has not yet reached
	// the posted one; the batch completes when it drops to zero.
	owed int
	// kickedAt is the time of the last (re)kick; the watchdog deadline
	// rebases on it so the capped-backoff phase keeps real intervals.
	kickedAt sim.Time
	retries  int
	done     bool
	// onComplete runs (in the last-acking responder's context) when all
	// targets have acked; it must be observational plus initiator-side
	// bookkeeping only.
	onComplete func(p *sim.Proc)
}

// Done reports whether every target has acknowledged the batch.
func (b *AsyncBatch) Done() bool { return b.done }

// Retries reports how many watchdog re-kicks the batch needed.
func (b *AsyncBatch) Retries() int { return b.retries }

// SetDrainApplier registers the kernel-side batch applier and enables
// the asynchronous fabric. The applier runs on the draining CPU's proc
// and performs the actual TLB invalidations; nil disables the fabric.
func (l *Layer) SetDrainApplier(fn func(p *sim.Proc, cpu mach.CPU, batch []Inval)) {
	l.drainApply = fn
}

// AsyncEnabled reports whether a drain applier is registered.
func (l *Layer) AsyncEnabled() bool { return l.drainApply != nil }

// SetMutant plants the machine's broken variant. Under MutantCoalesceShrink
// merges keep the newer inval's end, not the max, shrinking coverage; the
// shadow-TLB oracle and the exhaustive merge test must both convict it.
func (l *Layer) SetMutant(m fault.Mutant) { l.mutant = m }

func (l *Layer) fabricOf(cpu mach.CPU) *fabricCPU {
	fc := l.fabric[cpu]
	if fc == nil {
		fc = &fabricCPU{
			ringLine: l.dir.NewLine(),
			ackLine:  l.dir.NewLine(),
		}
		l.fabric[cpu] = fc
	}
	if l.rt != nil && fc.ringSync == nil {
		fc.ringSync = l.rt.NewSync(fmt.Sprintf("fabring-sync[%d]", cpu))
		fc.ackSync = l.rt.NewSync(fmt.Sprintf("faback-sync[%d]", cpu))
		fc.ringVar, fc.ackVar = fmt.Sprintf("fabring[%d]", cpu), fmt.Sprintf("faback[%d]", cpu)
		fc.postVar, fc.fullVar = fmt.Sprintf("fabpost[%d]", cpu), fmt.Sprintf("fabfull[%d]", cpu)
	}
	return fc
}

// canCoalesce reports whether next can merge into prev in-ring: same
// address space and stride, a contiguous generation run, and adjacent
// or overlapping ranges (so the merged span still covers every
// generation in the run exactly). Full entries absorb anything newer
// for the same address space.
func canCoalesce(prev, next *Inval) bool {
	if prev.ASID != next.ASID || prev.GenHi+1 != next.GenLo {
		return false
	}
	if prev.Full {
		return true
	}
	if next.Full || prev.Stride != next.Stride {
		return false
	}
	return next.Start <= prev.End && prev.Start <= next.End
}

// mergeInval folds next into prev in-ring. Soundness contract: the
// merged entry either goes full or keeps [min(Start), max(End)) —
// covering both inputs — while GenHi advances to next's run. It reads
// the endpoints only through comparisons, so TestMergeInval's
// enumeration over six page numbers checks it on every ordering.
func (l *Layer) mergeInval(prev, next *Inval) {
	prev.GenHi = next.GenHi
	if prev.Full {
		return
	}
	if next.Full {
		prev.Full = true
		return
	}
	if l.mutant == fault.MutantCoalesceShrink {
		// BROKEN-coalesce: adopt next's end instead of the max. When
		// next ends below prev the merged entry silently stops covering
		// prev's tail, and a stale translation survives the drain.
		prev.End = next.End
		if next.Start < prev.Start {
			prev.Start = next.Start
		}
		return
	}
	if next.Start < prev.Start {
		prev.Start = next.Start
	}
	if next.End > prev.End {
		prev.End = next.End
	}
}

// PostAsync enqueues inv on every CPU in targets, kicks the targets
// whose rings were empty, registers onComplete against the posted
// sequences, and returns without waiting — the initiator never spins.
// The initiator must not be in targets (it flushes locally, inline).
func (l *Layer) PostAsync(p *sim.Proc, from mach.CPU, targets mach.CPUMask, inv Inval, onComplete func(p *sim.Proc)) *AsyncBatch {
	if targets.Has(from) {
		panic("smp: async initiator cannot target itself")
	}
	if l.drainApply == nil {
		panic("smp: PostAsync without a drain applier")
	}
	if !inv.Full && inv.GenLo > inv.GenHi {
		panic(fmt.Sprintf("smp: malformed inval: generation run [%d, %d] is empty", inv.GenLo, inv.GenHi))
	}
	cpus := targets.CPUs()
	b := &AsyncBatch{
		from: from, targets: cpus,
		seqs:     make([]uint64, len(cpus)),
		kickedAt: l.eng.Now(),
	}
	if len(cpus) == 0 {
		b.done = true
		if onComplete != nil {
			onComplete(p)
		}
		return b
	}
	b.onComplete = onComplete
	var kick mach.CPUMask
	for i, t := range cpus {
		fc := l.fabricOf(t)
		// One RMW on the ring head publishes the entry, the new posted
		// sequence, and (on overflow) the flush_all flag together.
		p.Delay(l.dir.Atomic(from, fc.ringLine))
		if l.rt != nil {
			l.rt.AtomicRMW(fc.ringVar)
			l.rt.AtomicRMW(fc.postVar)
			l.rt.Release(fc.ringSync)
		}
		wasIdle := len(fc.fabRing) == 0 && !fc.fabFlushAll
		fc.fabPostSeq++
		b.seqs[i] = fc.fabPostSeq
		l.stats.AsyncPosts++
		// Every posted sequence lands in a merge, the ring (which never
		// grows past RingSize) or the flush_all collapse.
		n := len(fc.fabRing)
		if n > 0 && canCoalesce(&fc.fabRing[n-1], &inv) {
			l.mergeInval(&fc.fabRing[n-1], &inv)
			l.stats.AsyncCoalesced++
		} else if n >= RingSize {
			// Overflow: collapse to flush_all instead of blocking. The
			// precise entries stay queued but the drain widens to a full
			// flush, which subsumes them.
			if l.rt != nil {
				l.rt.AtomicRMW(fc.fullVar)
			}
			fc.fabFlushAll = true
			l.stats.AsyncOverflows++
		} else {
			fc.fabRing = append(fc.fabRing, inv)
		}
		if wasIdle {
			kick.Set(t)
			l.stats.AsyncKicks++
		} else {
			l.stats.AsyncKicksElided++
		}
	}
	// A target that drained while later targets were still being posted
	// acked before the batch was registered, so no drain counts it off.
	for i, t := range cpus {
		fc := l.fabricOf(t)
		if l.rt != nil {
			l.rt.AtomicLoad(fc.ackVar)
		}
		if fc.fabAckSeq < b.seqs[i] {
			b.owed++
		}
	}
	l.stats.AsyncBatches++
	l.batches = append(l.batches, b)
	l.bus.SendIPI(p, from, kick, apic.VectorCallFunction)
	if l.fault.RecoveryArmed() {
		l.ensureWatchdog()
		l.wdCond.Broadcast()
	}
	return b
}

// FabricPending returns the number of ring entries queued for cpu plus
// whether the flush_all flag is set (the acquire-side peek tests use).
func (l *Layer) FabricPending(cpu mach.CPU) (entries int, flushAll bool) {
	fc := l.fabricOf(cpu)
	if l.rt != nil {
		l.rt.AtomicLoad(fc.ringVar)
		l.rt.AtomicLoad(fc.fullVar)
	}
	return len(fc.fabRing), fc.fabFlushAll
}

// FabricSeqs returns cpu's posted and acked fabric sequences.
func (l *Layer) FabricSeqs(cpu mach.CPU) (posted, acked uint64) {
	fc := l.fabricOf(cpu)
	if l.rt != nil {
		l.rt.AtomicLoad(fc.postVar)
		l.rt.AtomicLoad(fc.ackVar)
	}
	return fc.fabPostSeq, fc.fabAckSeq
}

// DrainFabric pops cpu's whole ring, applies the batch through the
// registered applier, and acks the highest observed sequence. The
// kernel calls it at IRQ entry and on return-to-user; an empty ring
// costs nothing (the emptiness peek is an acquire-side load).
func (l *Layer) DrainFabric(p *sim.Proc, cpu mach.CPU) {
	if l.drainApply == nil {
		return
	}
	fc := l.fabricOf(cpu)
	if l.rt != nil {
		l.rt.AtomicLoad(fc.ringVar)
		l.rt.AtomicLoad(fc.fullVar)
	}
	if len(fc.fabRing) == 0 && !fc.fabFlushAll {
		return
	}
	// llist_del_all-style pop of the whole ring: entries, flush_all and
	// the posted sequence come off in one RMW on the head line.
	p.Delay(l.dir.Atomic(cpu, fc.ringLine))
	if l.rt != nil {
		l.rt.AtomicRMW(fc.ringVar)
		l.rt.AtomicRMW(fc.fullVar)
		l.rt.AtomicLoad(fc.postVar)
		l.rt.Acquire(fc.ringSync)
	}
	batch := fc.fabRing
	fc.fabRing = nil
	seq := fc.fabPostSeq
	if fc.fabFlushAll {
		// The collapse widens the whole batch to one full flush.
		fc.fabFlushAll = false
		batch = []Inval{{Full: true, GenHi: maxGenHi(batch)}}
		l.stats.AsyncFullDrains++
	}
	l.stats.AsyncDrains++
	l.stats.AsyncApplied += uint64(len(batch))
	// Apply before acking: the ack asserts the invalidations landed. A
	// broken applier that defers the work (fault.MutantAckBeforeDrain)
	// turns the store below into a premature ack — the exact protocol
	// violation the sanitizer's deferred obligation windows catch.
	l.drainApply(p, cpu, batch)
	if d := l.fault.AckDelay(); d > 0 {
		p.Delay(d)
	}
	p.Delay(l.dir.Write(cpu, fc.ackLine))
	if l.rt != nil {
		l.rt.AtomicStore(fc.ackVar)
		l.rt.Release(fc.ackSync)
	}
	prev := fc.fabAckSeq
	if seq < prev {
		panic(fmt.Sprintf("smp: cpu%d acks sequence %d below its previous ack %d", cpu, seq, prev))
	}
	fc.fabAckSeq = seq
	l.retireBatches(p, cpu, prev, seq)
}

func maxGenHi(batch []Inval) uint64 {
	var max uint64
	for _, inv := range batch {
		if inv.GenHi > max {
			max = inv.GenHi
		}
	}
	return max
}

// retireBatches counts cpu's ack, which moved from prev to seq, off every
// outstanding batch that posted cpu a sequence in (prev, seq], and
// completes the batches that owe no more acks, in posting order. A CPU's
// drains run on its own proc one at a time, so its ack only grows
// (DrainFabric checks it) and each posted sequence is counted off once.
// A completed batch leaves the list, so finding one here means its
// callback would run twice. The list is repartitioned before any
// callback runs, so a callback that posts new work cannot corrupt the
// scan.
func (l *Layer) retireBatches(p *sim.Proc, cpu mach.CPU, prev, seq uint64) {
	var completed []*AsyncBatch
	live := l.batches[:0]
	for _, b := range l.batches {
		if b.done {
			panic(fmt.Sprintf("smp: batch from cpu%d completed twice", b.from))
		}
		if i, ok := slices.BinarySearch(b.targets, cpu); ok && prev < b.seqs[i] && b.seqs[i] <= seq {
			b.owed--
		}
		if b.owed == 0 {
			completed = append(completed, b)
		} else {
			live = append(live, b)
		}
	}
	l.batches = live
	for _, b := range completed {
		if l.rt != nil {
			// Completion observes every target's ack and joins its ack
			// edge: the callback (and the initiator-side window close it
			// performs) is ordered after all responder flushes.
			for _, t := range b.targets {
				fc := l.fabricOf(t)
				l.rt.AtomicLoad(fc.ackVar)
				l.rt.Acquire(fc.ackSync)
			}
		}
		b.done = true
		if b.onComplete != nil {
			b.onComplete(p)
		}
	}
	if len(completed) > 0 && l.wdCond != nil {
		l.wdCond.Broadcast()
	}
}

// OutstandingBatches reports the number of posted batches not yet fully
// acked (tests and the experiments sweep read it at quiesce).
func (l *Layer) OutstandingBatches() int { return len(l.batches) }

// ensureWatchdog starts the generation-gap watchdog proc once. It only
// runs under an armed fault plane: fault-free runs never pay for it.
func (l *Layer) ensureWatchdog() {
	if l.wdCond != nil {
		return
	}
	l.wdCond = l.eng.NewCond()
	l.eng.Go("smp-fabric-watchdog", l.watchdog)
}

// watchdog is the async arm of the recovery ladder. Where the sync
// initiator detects loss by its own spin-wait timing out (the ack
// wait Shoot ends in), nobody spins on the fabric — so a dedicated
// proc watches for posted-vs-acked sequence gaps that outlive the ack
// deadline (AckTimeout after the batch's retries, the sync tier's
// backoff), re-kicks, and after MaxKickRetries collapses the lagging
// target's ring to flush_all (degrade: a full flush subsumes whatever
// the lost kicks stranded). The burst-bounded drop fault guarantees a
// re-kick eventually lands.
func (l *Layer) watchdog(p *sim.Proc) {
	for {
		if len(l.batches) == 0 {
			// Park without a timer so a finished run can quiesce.
			l.wdCond.Wait(p)
			continue
		}
		var due *AsyncBatch
		earliest := sim.Time(^uint64(0))
		for _, b := range l.batches {
			d := sim.Time(uint64(b.kickedAt) + l.AckTimeout(b.retries))
			if d < earliest {
				earliest, due = d, b
			}
		}
		now := l.eng.Now()
		if now < earliest {
			l.wdCond.WaitTimeout(p, uint64(earliest-now))
			continue
		}
		l.rekickBatch(p, due)
	}
}

// rekickBatch re-rings the doorbell of every target still lagging b's
// posted sequence; past MaxKickRetries it first sets the target's
// flush_all flag so the eventually-delivered drain over-flushes rather
// than trusting re-posted precision.
func (l *Layer) rekickBatch(p *sim.Proc, b *AsyncBatch) {
	l.stats.AckTimeouts++
	var kick mach.CPUMask
	degraded := false
	for i, t := range b.targets {
		fc := l.fabricOf(t)
		if l.rt != nil {
			l.rt.AtomicLoad(fc.ackVar)
		}
		if fc.fabAckSeq >= b.seqs[i] {
			continue
		}
		if b.retries >= MaxKickRetries && !fc.fabFlushAll {
			p.Delay(l.dir.Atomic(b.from, fc.ringLine))
			if l.rt != nil {
				l.rt.AtomicRMW(fc.fullVar)
				l.rt.Release(fc.ringSync)
			}
			fc.fabFlushAll = true
			degraded = true
		}
		if l.rt != nil {
			// Re-release the post edge: the (possibly degraded) ring
			// state happens-before the drain this kick triggers.
			l.rt.Release(fc.ringSync)
		}
		kick.Set(t)
	}
	if degraded {
		l.stats.AsyncDegrades++
	}
	if b.retries < MaxKickRetries {
		b.retries++
	}
	b.kickedAt = l.eng.Now()
	l.stats.AsyncRekicks += uint64(kick.Count())
	l.bus.SendIPI(p, b.from, kick, apic.VectorCallFunction)
}
