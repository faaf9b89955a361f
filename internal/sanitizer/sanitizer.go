// Package sanitizer is a shadow-oracle coherence checker for the simulated
// TLB shootdown protocol — the correctness backbone behind the paper's
// claim that flushes can be elided, deferred and overlapped without ever
// letting a core translate through a stale entry (§5 of the paper
// describes the debug mechanism Linux needed for exactly this).
//
// Attached to a kernel, the checker is a plain subscriber to the layers'
// obs.Hook observation points (address-space creation, leaf-PTE changes,
// TLB hits and flushes, queued IPIs, shootdown begin and end, returns to
// user mode, rwsem acquire and release), so any number of checkers and
// the trace recorder can watch one kernel side by side. It maintains a
// ground-truth shadow copy of every tracked address space's page tables,
// fed by the page tables' Changed hooks. Each restrictive PTE change
// (unmap, frame change, permission removal) opens a *flush obligation*:
// until the covering shootdown completes, stale TLB hits on the changed
// page are legal — that is the protocol's inherent (and bounded)
// staleness window. A TLB hit that contradicts the shadow page table
// outside any open obligation is a stale-translation violation, reported
// with the full event trace: who changed the PTE, which shootdown should
// have covered it, and how the window was closed.
//
// The checker also counts redundant flushes (invalidations that removed
// nothing — the paper's headline waste), verifies every queued IPI request
// is acknowledged, flags early acknowledgements on table-freeing flushes
// (forbidden by §3.2), and runs a lockdep-style lock-order check over
// mm/rwsem instances.
//
// All subscribers are purely observational: they never advance simulated
// time, so a checked run is cycle-identical to an unchecked one.
package sanitizer

import (
	"fmt"
	"sort"

	"shootdown/internal/apic"
	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
	"shootdown/internal/tlb"
)

// Config tunes the checker.
type Config struct {
	// AllowLazyWindow legalizes stale hits on CPUs that still have queued
	// lazy flush work. It must be set when the protocol runs with
	// core.Config.LazyRemote: the LATR-style extension is *designed* to
	// leave the §2.3.2 staleness window open, and the experiments that use
	// it measure exactly that window. Without this flag the checker
	// (correctly) reports the lazy protocol as incoherent.
	AllowLazyWindow bool
}

// maxViolations caps recorded violations per checker; further violations
// are counted but dropped from the report.
const maxViolations = 64

// Violation is one detected protocol violation.
type Violation struct {
	// Kind classifies the violation: "stale-translation", "unacked-ipi",
	// "early-ack-freed-tables", "lock-order", "leftover-ipi",
	// "unfinished-shootdown" or "shadow-divergence".
	Kind string
	// CPU is the CPU the violation was observed on (-1 if machine-wide).
	CPU int
	// At is the virtual time of detection.
	At sim.Time
	// Msg is the full multi-line report.
	Msg string
}

// Stats aggregates checker observations over a run.
type Stats struct {
	PTEChanges         uint64
	RestrictiveChanges uint64
	ObligationsOpened  uint64
	ClosedByShootdown  uint64
	ClosedByUserReturn uint64
	TLBHits            uint64
	StaleLegalOpen     uint64
	StaleLegalLazy     uint64
	SelectiveFlushes   uint64
	RedundantSelective uint64
	FullFlushes        uint64
	RedundantFull      uint64
	IPIRequests        uint64
	Shootdowns         uint64
}

// Add accumulates another run's counters into s.
func (s *Stats) Add(o Stats) {
	s.PTEChanges += o.PTEChanges
	s.RestrictiveChanges += o.RestrictiveChanges
	s.ObligationsOpened += o.ObligationsOpened
	s.ClosedByShootdown += o.ClosedByShootdown
	s.ClosedByUserReturn += o.ClosedByUserReturn
	s.TLBHits += o.TLBHits
	s.StaleLegalOpen += o.StaleLegalOpen
	s.StaleLegalLazy += o.StaleLegalLazy
	s.SelectiveFlushes += o.SelectiveFlushes
	s.RedundantSelective += o.RedundantSelective
	s.FullFlushes += o.FullFlushes
	s.RedundantFull += o.RedundantFull
	s.IPIRequests += o.IPIRequests
	s.Shootdowns += o.Shootdowns
}

// obKey identifies a flush obligation: one leaf page of one address space.
type obKey struct {
	mm mm.ID
	va uint64
}

// obligation is an open (or the most recently closed) flush window for a
// restrictive PTE change. kind/old/cpu/at describe the *latest* restrictive
// change folded into the window: when a second change lands on a page whose
// window is still open (e.g. writeback write-protecting a page another CPU
// just CoW-remapped), the obligation is re-blamed to the later changer —
// only that CPU's covering flush (or return to user) may close the window.
type obligation struct {
	key      obKey
	size     pagetable.Size
	kind     string
	old      pagetable.PTE
	cpu      int // CPU of the latest change, -1 if from outside a CPU proc
	at       sim.Time
	merged   int // further restrictive changes folded into this window
	closedAt sim.Time
	closedBy string
}

type pcidRef struct {
	sh   *shadow
	user bool
}

type reqRec struct {
	smp.Call
	at sim.Time
}

type vioKey struct {
	cpu int
	mm  mm.ID
	va  uint64
}

// Checker is one attached sanitizer instance (one simulated machine).
type Checker struct {
	K   *kernel.Kernel
	F   *core.Flusher
	Cfg Config

	shadows map[mm.ID]*shadow
	byPCID  map[tlb.PCID]pcidRef
	open    map[obKey]*obligation
	closed  map[obKey]*obligation
	begins  map[*core.FlushInfo]sim.Time
	procCPU map[*sim.Proc]int
	seen    map[vioKey]bool
	reqs    []reqRec

	// lazyQueued mirrors each CPU's lazy-work queue length, fed by its
	// LazyQueue hook (tracked only under AllowLazyWindow).
	lazyQueued map[*kernel.CPU]int

	locks *lockdep

	violations []Violation
	dropped    int
	stats      Stats

	result *Summary
}

// Attach subscribes the checker to a booted (or booting) kernel's hooks.
// f may be nil when the flusher is not a *core.Flusher; shootdown-window
// tracking then falls back to the return-to-user backstop alone. Other
// subscribers (the trace recorder, further checkers) keep receiving
// every event. Address spaces created before Attach are not tracked.
func Attach(k *kernel.Kernel, f *core.Flusher, cfg Config) *Checker {
	c := &Checker{
		K: k, F: f, Cfg: cfg,
		shadows:    make(map[mm.ID]*shadow),
		byPCID:     make(map[tlb.PCID]pcidRef),
		open:       make(map[obKey]*obligation),
		closed:     make(map[obKey]*obligation),
		begins:     make(map[*core.FlushInfo]sim.Time),
		procCPU:    make(map[*sim.Proc]int),
		seen:       make(map[vioKey]bool),
		lazyQueued: make(map[*kernel.CPU]int),
	}
	c.locks = newLockdep(c)

	k.ASCreated.Add(func(as *mm.AddressSpace) {
		sh := newShadow(as)
		c.shadows[as.ID] = sh
		c.byPCID[as.KernelPCID] = pcidRef{sh, false}
		c.byPCID[as.UserPCID] = pcidRef{sh, true}
		as.PT.Changed.Add(func(ch pagetable.Change) { c.onChange(sh, ch) })
		c.locks.watch(as.MmapSem)
	})
	k.UserReturn.Add(c.onUserReturn)
	k.SMP.Queued.Add(c.onCall)
	if f != nil {
		f.ShootBegin.Add(func(s core.Shootdown) {
			c.stats.Shootdowns++
			c.begins[s.Info] = k.Eng.Now()
		})
		f.ShootEnd.Add(c.onShootEnd)
		if m := f.IPIMutex(); m != nil {
			c.locks.watch(m)
		}
	}
	for _, cpu := range k.CPUs() {
		cpu.TLB.Hit.Add(func(h tlb.Hit) { c.onHit(cpu, h) })
		cpu.TLB.Flushed.Add(c.onFlush)
		if cfg.AllowLazyWindow {
			cpu.LazyQueue.Add(func(n int) { c.lazyQueued[cpu] = n })
		}
	}
	return c
}

// onFlush counts a flush, and whether it was redundant (removed nothing).
func (c *Checker) onFlush(fl tlb.Flush) {
	if fl.Full {
		c.stats.FullFlushes++
		if fl.Removed == 0 {
			c.stats.RedundantFull++
		}
		return
	}
	c.stats.SelectiveFlushes++
	if fl.Removed == 0 {
		c.stats.RedundantSelective++
	}
}

// WatchSem adds a semaphore to the lock-order checker (address-space
// mmap_sems and the flusher's IPI mutex are watched automatically).
func (c *Checker) WatchSem(s *mm.RWSem) { c.locks.watch(s) }

// currentCPU resolves the executing simulated process to its kernel CPU
// (-1 when the mutation came from a non-CPU process or from the event
// loop).
func (c *Checker) currentCPU() int {
	p := c.K.Eng.Current()
	if p == nil {
		return -1
	}
	if id, ok := c.procCPU[p]; ok {
		return id
	}
	id := -1
	for _, cpu := range c.K.CPUs() {
		if cpu.Proc() == p {
			id = int(cpu.ID)
			break
		}
	}
	c.procCPU[p] = id
	return id
}

func (c *Checker) onChange(sh *shadow, ch pagetable.Change) {
	c.stats.PTEChanges++
	restrictive, kind := classify(ch)
	sh.apply(ch)
	if !restrictive {
		return
	}
	c.stats.RestrictiveChanges++
	key := obKey{sh.as.ID, ch.VA}
	if ob, ok := c.open[key]; ok {
		// The window is re-blamed to this change: an already-running
		// shootdown sampled the page tables before it and cannot cover it,
		// so only a flush begun from here on (or the changer's own return
		// to user) may close the window.
		ob.merged++
		ob.kind, ob.old = kind, ch.Old
		ob.cpu, ob.at = c.currentCPU(), c.K.Eng.Now()
		return
	}
	c.stats.ObligationsOpened++
	c.open[key] = &obligation{
		key: key, size: ch.Size, kind: kind, old: ch.Old,
		cpu: c.currentCPU(), at: c.K.Eng.Now(),
	}
}

// classify decides whether a PTE change can leave a dangerous stale TLB
// entry behind. Permission-adding changes (populate, CoW reuse, dirty and
// accessed tracking, prot-none clearing) cannot: a TLB entry caching the
// weaker old permissions merely causes a spurious fault.
func classify(ch pagetable.Change) (restrictive bool, kind string) {
	oldF, newF := ch.Old.Flags, ch.New.Flags
	switch {
	case !oldF.Has(pagetable.Present):
		return false, ""
	case !newF.Has(pagetable.Present):
		return true, "unmap"
	case ch.New.Frame != ch.Old.Frame:
		return true, "remap"
	case oldF.Has(pagetable.Write) && !newF.Has(pagetable.Write):
		return true, "write-protect"
	case !oldF.Has(pagetable.NX) && newF.Has(pagetable.NX):
		return true, "nx-set"
	case !oldF.Has(pagetable.ProtNone) && newF.Has(pagetable.ProtNone):
		return true, "protnone-set"
	}
	return false, ""
}

func (c *Checker) onShootEnd(s core.Shootdown) {
	info := s.Info
	closedBy := fmt.Sprintf("shootdown (initiator cpu%d, gen %d, range [%#x,%#x), full=%v)",
		s.CPU, info.NewGen, info.Start, info.End, info.Full)
	now := c.K.Eng.Now()
	beginAt, tracked := c.begins[info]
	delete(c.begins, info)
	if !tracked {
		beginAt = now
	}
	for key, ob := range c.open {
		if key.mm != info.AS.ID {
			continue
		}
		if !info.Full {
			end := key.va + ob.size.Bytes()
			if end <= info.Start || key.va >= info.End {
				continue
			}
		}
		// A shootdown covers only changes made before it began: a change
		// that raced in afterwards (merged into this window) keeps the
		// window open until its own covering flush completes.
		if ob.at > beginAt {
			continue
		}
		ob.closedAt = now
		ob.closedBy = closedBy
		c.closed[key] = ob
		delete(c.open, key)
		c.stats.ClosedByShootdown++
	}
}

// onUserReturn is the backstop that bounds every obligation: by the time
// the CPU that made a restrictive change returns to user mode, its syscall
// (or fault handler) must have completed the covering flush — FlushAfter
// and CoWFixup run synchronously under mmap_sem. Closing the window here
// is what gives the checker detection power against a broken protocol: if
// the flush was elided, later stale hits land outside any window.
func (c *Checker) onUserReturn(cpu *kernel.CPU) {
	id := int(cpu.ID)
	now := c.K.Eng.Now()
	for key, ob := range c.open {
		if ob.cpu != id {
			continue
		}
		if c.coveredInFlight(key, ob) {
			// A shootdown covering this window began and has not completed:
			// the window stays open until its end event. Synchronous
			// shootdowns begin and end inside the initiator's syscall, so
			// this only fires for the async fabric's deferred discharge —
			// the initiator legally resumes user work while the posted
			// batch is still in flight, and only the batch completion
			// (every target's generation ack) may close the window.
			continue
		}
		ob.closedAt = now
		ob.closedBy = fmt.Sprintf("return-to-user (cpu%d, no covering shootdown observed)", id)
		c.closed[key] = ob
		delete(c.open, key)
		c.stats.ClosedByUserReturn++
	}
}

// coveredInFlight reports whether an in-flight shootdown (begun, not yet
// ended) covers the obligation: same address space, full or overlapping
// range, begun no earlier than the change.
func (c *Checker) coveredInFlight(key obKey, ob *obligation) bool {
	for info, beginAt := range c.begins {
		if info.AS.ID != key.mm || ob.at > beginAt {
			continue
		}
		if !info.Full {
			end := key.va + ob.size.Bytes()
			if end <= info.Start || key.va >= info.End {
				continue
			}
		}
		return true
	}
	return false
}

func (c *Checker) onCall(call smp.Call) {
	from, req := call.From, call.Req
	c.stats.IPIRequests++
	if req.AckEarly {
		if fi, ok := req.Payload.(*core.FlushInfo); ok && fi.FreedTables {
			c.addViolation("early-ack-freed-tables", int(from),
				fmt.Sprintf("early-ack-freed-tables: cpu%d queued an early-ack flush request to cpu%d although the flush frees page tables (mm %d, range [%#x,%#x)) — §3.2 forbids early acks here: a speculative walk on the not-yet-flushed target could touch freed memory",
					from, req.Target(), fi.AS.ID, fi.Start, fi.End))
		}
	}
	c.reqs = append(c.reqs, reqRec{call, c.K.Eng.Now()})
	if len(c.reqs) > 8192 {
		kept := c.reqs[:0]
		for _, r := range c.reqs {
			if !r.Req.Done() {
				kept = append(kept, r)
			}
		}
		c.reqs = kept
	}
}

func (c *Checker) onHit(cpu *kernel.CPU, h tlb.Hit) {
	pcid, va, e := h.PCID, h.VA, h.Entry
	c.stats.TLBHits++
	ref, ok := c.byPCID[pcid]
	if !ok {
		return
	}
	reason, shadowDesc := ref.sh.contradicts(va, e)
	if reason == "" {
		return
	}
	key4k := obKey{ref.sh.as.ID, va &^ (pagetable.PageSize4K - 1)}
	key2m := obKey{ref.sh.as.ID, va &^ (pagetable.PageSize2M - 1)}
	if _, ok := c.open[key4k]; ok {
		c.stats.StaleLegalOpen++
		return
	}
	if ob, ok := c.open[key2m]; ok && ob.size == pagetable.Size2M {
		c.stats.StaleLegalOpen++
		return
	}
	if c.lazyQueued[cpu] > 0 {
		c.stats.StaleLegalLazy++
		return
	}
	vk := vioKey{int(cpu.ID), ref.sh.as.ID, key4k.va}
	if c.seen[vk] {
		return
	}
	c.seen[vk] = true

	space := "kernel"
	if ref.user {
		space = "user"
	}
	msg := fmt.Sprintf("stale-translation: cpu%d hit mm%d va %#x via %s PCID %#x: %s\n",
		cpu.ID, ref.sh.as.ID, va, space, pcid, reason)
	msg += fmt.Sprintf("  tlb entry: va %#x frame %#x size %s flags %s\n",
		e.VA, e.Frame, e.Size, e.Flags)
	msg += fmt.Sprintf("  shadow pte: %s\n", shadowDesc)
	if ob := c.lastObligation(key4k, key2m); ob != nil {
		msg += fmt.Sprintf("  pte change: %s of %#x (%s, old frame %#x flags %s) by %s at t=%d\n",
			ob.kind, ob.key.va, ob.size, ob.old.Frame, ob.old.Flags, cpuName(ob.cpu), ob.at)
		msg += fmt.Sprintf("  flush window: closed at t=%d by %s", ob.closedAt, ob.closedBy)
	} else {
		msg += "  pte change: untracked (predates checker attachment?)"
	}
	msg += fmt.Sprintf("\n  active config: %s", c.configString())
	c.addViolation("stale-translation", int(cpu.ID), msg)
}

func (c *Checker) lastObligation(keys ...obKey) *obligation {
	for _, k := range keys {
		if ob, ok := c.closed[k]; ok {
			return ob
		}
	}
	return nil
}

func cpuName(id int) string {
	if id < 0 {
		return "non-CPU context"
	}
	return fmt.Sprintf("cpu%d", id)
}

func (c *Checker) configString() string {
	s := "flusher=?"
	if c.F != nil {
		s = c.F.Cfg.String()
	}
	if c.K.Cfg.PTI {
		return s + " (safe mode)"
	}
	return s + " (unsafe mode)"
}

func (c *Checker) addViolation(kind string, cpu int, msg string) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, Violation{
		Kind: kind, CPU: cpu, At: c.K.Eng.Now(), Msg: msg,
	})
}

// Finish runs the end-of-simulation checks (unacknowledged IPIs, leftover
// shootdown interrupts, shadow/page-table cross-validation) and returns
// the accumulated result. Call it after Engine.Run has quiesced; it is
// idempotent.
func (c *Checker) Finish() *Summary {
	if c.result != nil {
		return c.result
	}
	for _, r := range c.reqs {
		if !r.Req.Done() {
			c.addViolation("unacked-ipi", int(r.Req.Target()),
				fmt.Sprintf("unacked-ipi: flush request queued by cpu%d for cpu%d at t=%d was never acknowledged (early-ack=%v)",
					r.From, r.Req.Target(), r.at, r.Req.AckEarly))
		}
	}
	for _, cpu := range c.K.CPUs() {
		for i := 0; cpu.Ctrl.Pending() > 0 && i < 1024; i++ {
			irq, ok := cpu.Ctrl.Take()
			if !ok {
				break
			}
			if irq.Vector == apic.VectorCallFunction {
				c.addViolation("leftover-ipi", int(cpu.ID),
					fmt.Sprintf("leftover-ipi: cpu%d ended the run with an undelivered shootdown IPI from cpu%d", cpu.ID, irq.From))
			}
		}
	}
	if c.F != nil && c.F.Cfg.AsyncShootdown && len(c.begins) > 0 {
		// Async shootdowns detach begin from end: a batch whose targets
		// never all acked leaves its begin record behind. A quiesced run
		// must have drained and completed every posted batch (the rekick
		// ladder guarantees it even under drop faults), so leftovers mean
		// lost invalidations.
		type unfinished struct {
			info *core.FlushInfo
			at   sim.Time
		}
		var left []unfinished
		for info, at := range c.begins {
			left = append(left, unfinished{info, at})
		}
		sort.Slice(left, func(i, j int) bool {
			if left[i].at != left[j].at {
				return left[i].at < left[j].at
			}
			if left[i].info.AS.ID != left[j].info.AS.ID {
				return left[i].info.AS.ID < left[j].info.AS.ID
			}
			return left[i].info.Start < left[j].info.Start
		})
		for _, u := range left {
			c.addViolation("unfinished-shootdown", -1,
				fmt.Sprintf("unfinished-shootdown: async shootdown begun at t=%d (mm %d, gen %d, range [%#x,%#x), full=%v) never completed — some target never acked its fabric batch",
					u.at, u.info.AS.ID, u.info.NewGen, u.info.Start, u.info.End, u.info.Full))
		}
	}
	c.verifyShadows()
	c.result = &Summary{
		Worlds:     1,
		Violations: c.violations,
		Dropped:    c.dropped,
		Stats:      c.stats,
	}
	return c.result
}

// verifyShadows cross-validates every shadow against its real page table —
// a self-check that the observer hooks saw every mutation path.
func (c *Checker) verifyShadows() {
	ids := make([]int, 0, len(c.shadows))
	for id := range c.shadows {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		sh := c.shadows[mm.ID(id)]
		if diff := sh.diffAgainstPT(); diff != "" {
			c.addViolation("shadow-divergence", -1,
				fmt.Sprintf("shadow-divergence: mm%d shadow disagrees with its page table (missed mutation path?):\n%s", id, diff))
		}
	}
}

// Stats returns the counters accumulated so far.
func (c *Checker) Stats() Stats { return c.stats }
