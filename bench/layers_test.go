package bench

import (
	"strconv"
	"strings"

	"shootdown/internal/mach"
	"shootdown/internal/workload"
)

// counter indexes one deterministic per-layer counter.
type counter int

const (
	coreShootdowns counter = iota
	coreRemoteFull
	coreRemoteSkipped
	coreBatchedSkips
	coreEarlyAckSuppressed
	coreAsyncSyncFallbacks
	smpCalls
	smpKicks
	smpKicksElided
	smpEarlyAcks
	smpLateAcks
	smpAsyncPosts
	smpAsyncCoalesced
	smpClusterAckStores
	apicICRWrites
	apicIPIsDelivered
	cacheTransfers
	cacheTransfersCross
	kernelIRQs
	kernelIRQCycles
	kernelDeferredFlushes
	tlbHits
	tlbMisses
	tlbSelectiveFlushes
	tlbFullFlushes
	tlbFractureEscalations
	simCycles
	sanitizerPTEChanges
	sanitizerWindowsOpened
	raceAcquires
	raceCheckedAccesses
	numCounters
)

// counterNames are the metric and golden-line names, in counter order.
var counterNames = [numCounters]string{
	"core.shootdowns", "core.remote_full", "core.remote_skipped", "core.batched_skips",
	"core.early_ack_suppressed", "core.async_sync_fallbacks",
	"smp.calls", "smp.kicks", "smp.kicks_elided", "smp.early_acks", "smp.late_acks",
	"smp.async_posts", "smp.async_coalesced", "smp.cluster_ack_stores",
	"apic.icr_writes", "apic.ipis_delivered",
	"cache.transfers", "cache.transfers_cross",
	"kernel.irqs", "kernel.irq_cycles", "kernel.deferred_flushes",
	"tlb.hits", "tlb.misses", "tlb.selective_flushes", "tlb.full_flushes", "tlb.fracture_escalations",
	"sim.cycles",
	"sanitizer.pte_changes", "sanitizer.windows_opened", "race.acquires", "race.checked_accesses",
}

// counts are the deterministic per-layer counters of one cell (or the sum
// over a pass), read from every layer's Stats() of the machines a cell
// booted. They are part of the cell's result line, so a change that moves
// any of them fails the golden check even when the headline result holds.
type counts [numCounters]uint64

func (c *counts) add(o counts) {
	for i, v := range o {
		c[i] += v
	}
}

// String renders the nonzero counters as name=value pairs in a fixed order.
func (c *counts) String() string {
	var parts []string
	for i, v := range c {
		if v != 0 {
			parts = append(parts, counterNames[i]+"="+strconv.FormatUint(v, 10))
		}
	}
	return strings.Join(parts, " ")
}

// addWorld adds every layer's counters of one booted machine.
func (c *counts) addWorld(w *workload.World) {
	fs := w.F.Stats()
	c[coreShootdowns] += fs.Shootdowns + fs.AsyncShootdowns
	c[coreRemoteFull] += fs.RemoteFull
	c[coreRemoteSkipped] += fs.RemoteSkipped
	c[coreBatchedSkips] += fs.BatchedSkips
	c[coreEarlyAckSuppressed] += fs.EarlyAckSuppressed
	c[coreAsyncSyncFallbacks] += fs.AsyncSyncFallbacks

	ss := w.K.SMP.Stats()
	c[smpCalls] += ss.Calls
	c[smpKicks] += ss.Kicks
	c[smpKicksElided] += ss.KicksElided
	c[smpEarlyAcks] += ss.EarlyAcks
	c[smpLateAcks] += ss.LateAcks
	c[smpAsyncPosts] += ss.AsyncPosts
	c[smpAsyncCoalesced] += ss.AsyncCoalesced
	c[smpClusterAckStores] += ss.ClusterAckStores

	bs := w.K.Bus.Stats()
	c[apicICRWrites] += bs.ICRWrites
	c[apicIPIsDelivered] += bs.IPIsDelivered

	ds := w.K.Dir.Stats()
	c[cacheTransfers] += ds.Transfers()
	c[cacheTransfersCross] += ds.TransfersByDist[mach.DistCross]

	for _, cpu := range w.K.CPUs() {
		c[kernelIRQs] += cpu.IRQsHandled
		c[kernelIRQCycles] += cpu.Interrupted
		c[kernelDeferredFlushes] += cpu.DeferredFlushes
		ts := cpu.TLB.Stats()
		c[tlbHits] += ts.Hits
		c[tlbMisses] += ts.Misses
		c[tlbSelectiveFlushes] += ts.SelectiveFlushes
		c[tlbFullFlushes] += ts.FullFlushes
		c[tlbFractureEscalations] += ts.FractureEscalations
	}
	c[simCycles] += uint64(w.Eng.Now())
}

// fmtFloat renders a simulated result exactly (shortest round-trip form).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
