// Package smp models the Linux SMP function-call layer used to run code on
// remote CPUs: per-CPU call-single queues (CSQ), per-initiator
// call-function data (CFD), multicast IPI kicks, and the acknowledgement
// the initiator spin-waits on.
//
// The cacheline layout of these structures is explicit, because the paper's
// cacheline-consolidation optimization (§3.3) works entirely at this level:
//
//   - baseline layout: four distinct contended line types per shootdown —
//     the per-CPU lazy-mode/TLB-state line, the flush-info line (on the
//     initiator's stack), the CFD line, and the CSQ head line;
//   - consolidated layout: the lazy-mode indication shares a line with the
//     CSQ head (they are accessed back to back), and the flush info is
//     inlined into the CFD so both fit one line.
//
// The latency difference between the layouts is produced by the MESI model
// in internal/cache, not by constants in this package.
package smp

import (
	"fmt"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/obs"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// MaxKickRetries bounds the exponential-backoff re-kick sequence of the
// shootdown recovery path: the ack deadline doubles on each of the first
// MaxKickRetries timeouts (AckTimeout), and the next one degrades the
// outstanding requests to a full flush (losing precision, never
// correctness); re-kicks go on at the capped deadline until the
// burst-bounded fabric delivers. See AckTimedOut and the watchdog.
const MaxKickRetries = 3

// clusterAckThreshold is the machine width above which acknowledgement
// stores are aggregated onto per-cluster lines. 128 CPUs keeps every
// topology the paper's experiments use (and the old fixed-width mask
// supported) on the exact per-request ack layout.
const clusterAckThreshold = 128

// Degradable is a request payload that can widen itself to a full TLB
// flush. The recovery path invokes it when precise-range retries keep
// timing out: a full flush subsumes any range, so over-flushing under
// suspected IPI loss trades performance for unconditional coherence.
type Degradable interface {
	DegradeToFull()
}

// HandlerFunc runs on the target CPU in interrupt context. p is the target
// CPU's process; payload is the request payload.
type HandlerFunc func(p *sim.Proc, target mach.CPU, payload any)

// Request is one in-flight remote function call (one CFD entry).
type Request struct {
	// Fn is invoked on the target in IRQ context.
	Fn HandlerFunc
	// Payload is the argument (e.g. the TLB flush info).
	Payload any
	// AckEarly instructs the responder to acknowledge on IRQ entry, before
	// running Fn (paper §3.2). The initiator sets it only when safe.
	AckEarly bool

	target   mach.CPU
	cfdLine  *cache.Line
	ackLine  *cache.Line // where the ack store/spin-read traffic lands
	infoLine *cache.Line // nil under the consolidated layout
	acked    bool
	// waker, when set, is broadcast at ack time: the one way a waiting
	// initiator learns the ack landed.
	waker *sim.Cond
	// hb is the request's happens-before sync object (non-nil only when a
	// race detector is attached): released at queue time and at ack time,
	// acquired on IRQ receipt and when the initiator observes the ack.
	hb *race.Sync
}

// Target returns the CPU this request is queued for.
func (r *Request) Target() mach.CPU { return r.target }

// Done reports whether the target has acknowledged. This is the racy-read
// predicate spin loops poll; the happens-before edge is only established
// when the observer calls Layer.ObserveDone, mirroring how the real
// initiator's spin read gains ordering only from the CFD line's
// acquire semantics on the final poll.
func (r *Request) Done() bool { return r.acked }

// SetWaker makes the ack broadcast c (the kernel's ack wait passes the
// waiting CPU's wake cond). A broadcast with no waiter schedules nothing.
func (r *Request) SetWaker(c *sim.Cond) { r.waker = c }

type perCPU struct {
	// csqLine is the call-single-queue head cacheline.
	csqLine *cache.Line
	// lazyLine holds the lazy-mode indication initiators read before
	// sending. Baseline layout: it shares a line with genLine (the
	// frequently written per-CPU TLB state), causing false sharing.
	// Consolidated layout: it shares the CSQ head line instead, since the
	// two are accessed back to back (§3.3).
	lazyLine *cache.Line
	// genLine is the per-CPU TLB-generation state the responder's flush
	// function writes. Baseline: aliases lazyLine. Consolidated: private.
	// Both are allocated on first use (layoutOf), under the layout
	// SetLayout picked.
	genLine *cache.Line
	queue   []*Request
	// csqVar is the queue's race-variable name, set when a detector
	// attaches (SetRaceDetector).
	csqVar string
}

// Stats counts SMP-layer activity.
type Stats struct {
	// Calls is the number of queued remote requests.
	Calls uint64
	// Kicks is the number of CPUs actually sent an IPI.
	Kicks uint64
	// KicksElided counts targets whose CSQ was already non-empty, so no
	// IPI was needed (Linux's empty->non-empty optimization).
	KicksElided uint64
	// EarlyAcks / LateAcks split acknowledgements by protocol.
	EarlyAcks, LateAcks uint64
	// AckTimeouts counts ack deadlines (AckTimeout) that expired with
	// acknowledgements outstanding, on both tiers: a sync initiator's
	// timed-out wait (AckTimedOut) and the async watchdog's deadline for
	// a lagging batch.
	AckTimeouts uint64
	// Rekicks counts re-sent shootdown kicks after a timeout.
	Rekicks uint64
	// DegradedFulls counts sync recovery escalations that widened
	// outstanding precise flushes to full flushes after MaxKickRetries
	// timeouts.
	DegradedFulls uint64
	// MaxAckStall is the longest cycles any initiator spent waiting for
	// acknowledgements on the recovery path.
	MaxAckStall uint64

	// AsyncPosts counts ring entries posted by async initiators;
	// AsyncCoalesced of those merged into the previous in-ring entry,
	// and AsyncOverflows collapsed a full ring to flush_all instead.
	AsyncPosts, AsyncCoalesced, AsyncOverflows uint64
	// AsyncKicks / AsyncKicksElided split posts by whether the target's
	// ring was idle (doorbell needed) or already pending.
	AsyncKicks, AsyncKicksElided uint64
	// AsyncBatches counts posted initiator batches; AsyncDrains counts
	// responder drains that found work, AsyncApplied the entries they
	// applied, and AsyncFullDrains the drains widened by flush_all.
	AsyncBatches, AsyncDrains, AsyncApplied, AsyncFullDrains uint64
	// AsyncRekicks / AsyncDegrades count the watchdog's generation-gap
	// recovery actions (the rekick/degrade ladder for batched acks).
	AsyncRekicks, AsyncDegrades uint64
	// ClusterAckStores counts acknowledgement stores routed to a shared
	// per-cluster line instead of the request's own CFD line (wide
	// machines only; see clusterAckThreshold).
	ClusterAckStores uint64
}

// Layer is the machine-wide SMP function-call subsystem.
type Layer struct {
	eng  *sim.Engine
	topo mach.Topology
	cost *mach.CostModel
	dir  *cache.Directory
	bus  *apic.Bus
	// consolidated selects the §3.3 cacheline layout; hwMessage models the
	// §6 hardware extension: the IPI carries the function and payload, so
	// queueing and reading them costs no shared-memory cacheline traffic
	// (the ack stays in memory). SetLayout sets both.
	consolidated, hwMessage bool

	percpu []*perCPU
	// cfd[i][t] is the CFD line initiator i uses for target t, allocated
	// lazily (Linux: per-CPU cfd_data with a per-target csd each).
	cfd [][]*cache.Line
	// clusterAcks enables per-cluster acknowledgement aggregation on
	// machines wider than clusterAckThreshold CPUs: responders in one
	// x2APIC cluster store their acks to a shared per-(initiator,
	// cluster) line instead of each request's own CFD line, so a
	// broadcast initiator spin-reads ~targets/ClusterSize lines instead
	// of one per target. Done() and the waker broadcast are untouched —
	// only which cacheline the ack store and the spin reads are charged
	// to changes, which keeps every narrower machine byte-identical.
	clusterAcks bool
	// ackAgg[i][c] is the shared ack line initiator i polls for targets
	// in cluster c, allocated lazily like cfd.
	ackAgg [][]*cache.Line
	stats  Stats

	// fabric is the per-CPU asynchronous invalidation ring state (see
	// fabric.go), allocated on first use; drainApply is the
	// kernel-registered batch applier that enables the tier, batches the
	// outstanding posted batches, and wdCond parks the generation-gap
	// watchdog proc (started lazily, only under an armed fault plane).
	fabric     []*fabricCPU
	drainApply func(p *sim.Proc, cpu mach.CPU, batch []Inval)
	batches    []*AsyncBatch
	wdCond     *sim.Cond
	// mutant is the machine's planted broken variant; the layer acts
	// only on fault.MutantCoalesceShrink (see mergeInval).
	// Cross-validation only.
	mutant fault.Mutant

	// rt, when non-nil, receives happens-before events for every modeled
	// synchronization edge in this layer (see internal/race).
	rt *race.Detector

	// fault, when non-nil, injects acknowledgement delays (and arms the
	// recovery path in the kernel's wait loop).
	fault *fault.Plane

	// wait is the one sync ack wait, the kernel's: it blocks CPU from
	// until every request in reqs is acknowledged, servicing its IRQs
	// and climbing the recovery ladder (AckTimedOut) meanwhile. Shoot is
	// its only caller.
	wait func(p *sim.Proc, from mach.CPU, reqs []*Request)

	// Queued fires for every request Shoot queues (the sanitizer
	// tracks IPI protocol obligations with it); Acked fires when a target
	// acknowledges a request, before the initiator can observe it.
	Queued obs.Hook[Call]
	Acked  obs.Hook[*Request]
}

// Call is one request queued by an initiator.
type Call struct {
	From mach.CPU
	Req  *Request
}

// New builds the SMP layer with the baseline Linux layout (see SetLayout).
// wait is the ack wait every Shoot ends in.
func New(eng *sim.Engine, topo mach.Topology, cost *mach.CostModel, dir *cache.Directory, bus *apic.Bus, wait func(p *sim.Proc, from mach.CPU, reqs []*Request)) *Layer {
	n := topo.NumCPUs()
	l := &Layer{
		eng: eng, topo: topo, cost: cost, dir: dir, bus: bus, wait: wait,
		percpu:      make([]*perCPU, n),
		cfd:         make([][]*cache.Line, n),
		clusterAcks: n > clusterAckThreshold,
		ackAgg:      make([][]*cache.Line, n),
		fabric:      make([]*fabricCPU, n),
	}
	for i := range l.percpu {
		l.percpu[i] = &perCPU{csqLine: dir.NewLine()}
	}
	return l
}

// SetLayout picks the layer's layout: consolidated selects the paper's
// cacheline layout (§3.3) instead of the baseline Linux one, and
// hwMessage the §6 message-carrying-IPI hardware model. core.NewFlusher
// sets both from the protocol config; a layer nobody sets keeps the
// baseline. Call it before the first shootdown.
func (l *Layer) SetLayout(consolidated, hwMessage bool) {
	l.consolidated, l.hwMessage = consolidated, hwMessage
}

// SetRaceDetector attaches (or, with nil, detaches) the happens-before
// checker, naming each CPU's call-single queue for it. All reported
// events are observational; timing is unchanged.
func (l *Layer) SetRaceDetector(d *race.Detector) {
	l.rt = d
	if d != nil {
		for i, pc := range l.percpu {
			pc.csqVar = fmt.Sprintf("csq[%d]", i)
		}
	}
}

// SetFaultPlane attaches the fault plane; nil detaches it.
func (l *Layer) SetFaultPlane(pl *fault.Plane) { l.fault = pl }

// ObserveDone records that the caller has observed req's acknowledgement,
// establishing the ack→observe happens-before edge. Wait loops call it
// once per request after their final Done poll.
func (l *Layer) ObserveDone(req *Request) {
	if l.rt != nil {
		l.rt.Acquire(req.hb)
	}
}

// Stats returns a snapshot of the counters.
func (l *Layer) Stats() Stats { return l.stats }

// LazyLine returns the line holding cpu's lazy-mode indication; the
// shootdown protocol charges a read of it when filtering the target mask.
func (l *Layer) LazyLine(cpu mach.CPU) *cache.Line {
	return l.layoutOf(cpu).lazyLine
}

// GenLine returns the line holding cpu's frequently written per-CPU TLB
// generation state; the responder's flush function charges writes to it.
func (l *Layer) GenLine(cpu mach.CPU) *cache.Line {
	return l.layoutOf(cpu).genLine
}

// layoutOf returns cpu's per-CPU state, allocating its layout-dependent
// lines on first use.
func (l *Layer) layoutOf(cpu mach.CPU) *perCPU {
	pc := l.percpu[cpu]
	if pc.genLine == nil {
		if l.consolidated {
			pc.lazyLine = pc.csqLine
			pc.genLine = l.dir.NewLine()
		} else {
			pc.lazyLine = l.dir.NewLine()
			pc.genLine = pc.lazyLine
		}
	}
	return pc
}

// CSQLine returns the call-single-queue head line of cpu (exposed so tests
// and reports can inspect layout aliasing).
func (l *Layer) CSQLine(cpu mach.CPU) *cache.Line {
	return l.percpu[cpu].csqLine
}

func (l *Layer) cfdLine(from, to mach.CPU) *cache.Line {
	row := l.cfd[from]
	if row == nil {
		row = make([]*cache.Line, l.topo.NumCPUs())
		l.cfd[from] = row
	}
	if row[to] == nil {
		row[to] = l.dir.NewLine()
	}
	return row[to]
}

// ackLine returns the cacheline the ack traffic between from and to is
// charged to: the request's own CFD line normally, the shared
// per-(initiator, cluster) line under aggregation.
func (l *Layer) ackLine(from, to mach.CPU) *cache.Line {
	if !l.clusterAcks {
		return l.cfdLine(from, to)
	}
	cluster := int(to) / apic.ClusterSize
	row := l.ackAgg[from]
	if row == nil {
		row = make([]*cache.Line, (l.topo.NumCPUs()+apic.ClusterSize-1)/apic.ClusterSize)
		l.ackAgg[from] = row
	}
	if row[cluster] == nil {
		row[cluster] = l.dir.NewLine()
	}
	return row[cluster]
}

// Shoot is a sync-tier shootdown: it queues fn on every CPU in targets,
// kicks the ones whose queues were empty, calls overlap (when non-nil)
// with the requests while the IPIs are in flight, and returns once every
// target has acknowledged. overlap is where the initiator's own work runs
// concurrently with delivery: the §3.1 local flush.
//
// infoLine is the flush-info cacheline under the baseline layout; pass nil
// to model inlined info (consolidated layout). The initiator must not be in
// targets.
func (l *Layer) Shoot(p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn HandlerFunc, payload any, ackEarly bool, infoLine *cache.Line, overlap func(reqs []*Request)) {
	reqs := l.callMany(p, from, targets, fn, payload, ackEarly, infoLine)
	if overlap != nil {
		overlap(reqs)
	}
	l.wait(p, from, reqs)
}

// callMany queues and kicks: Shoot without the overlap and the ack wait.
// It returns the per-target requests.
func (l *Layer) callMany(p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn HandlerFunc, payload any, ackEarly bool, infoLine *cache.Line) []*Request {
	if targets.Has(from) {
		panic("smp: initiator cannot target itself")
	}
	cpus := targets.CPUs()
	if len(cpus) == 0 {
		return nil
	}
	reqs := make([]*Request, 0, len(cpus))
	var kick mach.CPUMask
	for _, t := range cpus {
		req := &Request{
			Fn: fn, Payload: payload, AckEarly: ackEarly,
			target:   t,
			cfdLine:  l.cfdLine(from, t),
			ackLine:  l.ackLine(from, t),
			infoLine: infoLine,
		}
		l.stats.Calls++
		l.Queued.Emit(Call{from, req})
		if l.rt != nil {
			// Send edge: everything the initiator did before queueing
			// happens-before the responder's handler.
			req.hb = l.rt.NewSync(fmt.Sprintf("ipi[%d->%d]", from, t))
			l.rt.Release(req.hb)
		}
		pc := l.percpu[t]
		if l.hwMessage {
			// §6 hardware model: the IPI carries fn+payload, so neither
			// the CFD write nor the CSQ enqueue touches shared memory;
			// every target gets its own message-carrying IPI.
			req.infoLine = nil
			pc.queue = append(pc.queue, req)
			kick.Set(t)
			l.stats.Kicks++
			reqs = append(reqs, req)
			continue
		}
		// Write the CFD (function + payload, and inlined info when
		// consolidated). Under the baseline layout the info line was
		// already written by the caller.
		p.Delay(l.dir.Write(from, req.cfdLine))
		// Enqueue on the target's call-single queue. The llist_add is
		// atomic: whether the list was empty is learned from its result,
		// so the emptiness check happens after the RMW completes.
		p.Delay(l.dir.Atomic(from, pc.csqLine))
		if l.rt != nil {
			l.rt.AtomicRMW(pc.csqVar)
		}
		wasEmpty := len(pc.queue) == 0
		pc.queue = append(pc.queue, req)
		if wasEmpty {
			kick.Set(t)
			l.stats.Kicks++
		} else {
			l.stats.KicksElided++
		}
		reqs = append(reqs, req)
	}
	l.bus.SendIPI(p, from, kick, apic.VectorCallFunction)
	return reqs
}

// AnyDone reports whether any request has been acknowledged.
func AnyDone(reqs []*Request) bool {
	for _, r := range reqs {
		if r.Done() {
			return true
		}
	}
	return false
}

// AllDone reports whether every request has been acknowledged.
func AllDone(reqs []*Request) bool {
	for _, r := range reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// HandleIPI drains the target CPU's call-single queue; the kernel's IRQ
// dispatch calls it when VectorCallFunction arrives. It charges all
// cacheline traffic and runs each request's handler, acknowledging before
// or after the handler according to the request's AckEarly flag.
func (l *Layer) HandleIPI(p *sim.Proc, cpu mach.CPU) {
	pc := l.percpu[cpu]
	if !l.hwMessage {
		// Pop the whole queue (llist_del_all on the head line).
		p.Delay(l.dir.Atomic(cpu, pc.csqLine))
		if l.rt != nil {
			l.rt.AtomicRMW(pc.csqVar)
		}
	}
	queue := pc.queue
	pc.queue = nil
	for _, req := range queue {
		if l.rt != nil {
			// Receive edge: the handler sees everything that
			// happened-before the initiator queued this request.
			l.rt.Acquire(req.hb)
		}
		if !l.hwMessage {
			// Read the CFD to learn fn + payload.
			p.Delay(l.dir.Read(cpu, req.cfdLine))
			if req.infoLine != nil {
				// Baseline layout: the flush info lives on its own line.
				p.Delay(l.dir.Read(cpu, req.infoLine))
			}
		}
		if req.AckEarly {
			l.ack(p, cpu, req)
			l.stats.EarlyAcks++
			req.Fn(p, cpu, req.Payload)
		} else {
			req.Fn(p, cpu, req.Payload)
			l.ack(p, cpu, req)
			l.stats.LateAcks++
		}
	}
}

// PendingOn returns the number of queued requests for cpu (for tests).
// The length peek is an acquire-side load of the call-single queue, like
// llist_empty's READ_ONCE.
func (l *Layer) PendingOn(cpu mach.CPU) int {
	if l.rt != nil {
		l.rt.AtomicLoad(l.percpu[cpu].csqVar)
	}
	return len(l.percpu[cpu].queue)
}

// AckTimeout is the recovery ladder's ack deadline after n timeouts:
// IPIAckTimeout, doubled per timeout up to MaxKickRetries doublings. Both
// tiers back off by it: the sync initiator's wait (AckTimedOut) and the
// async watchdog's per-batch deadline.
func (l *Layer) AckTimeout(n int) uint64 {
	return l.cost.IPIAckTimeout << min(n, MaxKickRetries)
}

// AckTimedOut is the sync tier's recovery step, taken when the ack wait
// Shoot ends in hits its deadline on reqs for the n-th time with acks
// outstanding: a kick may have been lost in the fabric, or elided
// against a queue another initiator's lost kick stranded. It
// counts the timeout; at timeout MaxKickRetries+1 it widens the
// unacknowledged payloads to full flushes, once; it re-rings the doorbell
// of every unacknowledged target; and it returns the deadline of the next
// wait.
func (l *Layer) AckTimedOut(p *sim.Proc, from mach.CPU, reqs []*Request, n int) uint64 {
	l.stats.AckTimeouts++
	if n == MaxKickRetries+1 {
		l.degradeToFull(reqs)
	}
	l.rekick(p, from, reqs)
	return l.AckTimeout(n)
}

// rekick re-sends the shootdown kick for every unacknowledged request in
// reqs. The requests are still on their CSQs — only the doorbell is
// re-rung, so a spurious rekick of a merely slow responder is harmless
// (the extra IRQ finds an empty queue).
func (l *Layer) rekick(p *sim.Proc, from mach.CPU, reqs []*Request) {
	var kick mach.CPUMask
	for _, r := range reqs {
		if r.Done() {
			continue
		}
		if l.rt != nil {
			// Re-release the send edge: anything the initiator wrote since
			// the original send (e.g. a degraded payload) happens-before
			// the responder's handler run triggered by this kick.
			l.rt.Release(r.hb)
		}
		kick.Set(r.target)
	}
	if kick.Empty() {
		return
	}
	l.stats.Rekicks += uint64(kick.Count())
	l.bus.SendIPI(p, from, kick, apic.VectorCallFunction)
}

// degradeToFull widens the payload of every unacknowledged Degradable
// request in reqs to a full flush. Counted once per escalation event.
func (l *Layer) degradeToFull(reqs []*Request) {
	degraded := false
	for _, r := range reqs {
		if r.Done() {
			continue
		}
		if d, ok := r.Payload.(Degradable); ok {
			d.DegradeToFull()
			degraded = true
		}
	}
	if degraded {
		l.stats.DegradedFulls++
	}
}

// NoteAckStall records the total cycles one initiator spent waiting for
// acks on the recovery path; the maximum is reported.
func (l *Layer) NoteAckStall(cycles uint64) {
	if cycles > l.stats.MaxAckStall {
		l.stats.MaxAckStall = cycles
	}
}

func (l *Layer) ack(p *sim.Proc, cpu mach.CPU, req *Request) {
	// Fault plane: the responder reached the ack but its store is slow to
	// land (write-buffer drain, SMI between handler and store).
	if d := l.fault.AckDelay(); d > 0 {
		p.Delay(d)
	}
	p.Delay(l.dir.Write(cpu, req.ackLine))
	if req.ackLine != req.cfdLine {
		l.stats.ClusterAckStores++
	}
	if l.rt != nil {
		// Ack edge: everything the responder did before acknowledging
		// happens-before the initiator's ObserveDone. Under early ack this
		// release fires before the flush — which is exactly the ordering
		// the detector then judges.
		l.rt.Release(req.hb)
	}
	req.acked = true
	l.Acked.Emit(req)
	if req.waker != nil {
		req.waker.Broadcast()
	}
}
