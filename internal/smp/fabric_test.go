package smp

import (
	"strings"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// spawnFabricResponder runs a minimal async-tier IRQ loop on cpu: where
// the kernel's IRQ entry sweeps the fabric ring alongside the CSQ, this
// responder drains only the fabric. It exits after `quota` kicks.
func (r *rig) spawnFabricResponder(cpu mach.CPU, quota int) {
	ctrl := r.bus.Controller(cpu)
	irqArrived := r.eng.NewCond()
	ctrl.SetNotify(func() { irqArrived.Broadcast() })
	r.eng.Go("fabric-responder", func(p *sim.Proc) {
		for handled := 0; handled < quota; {
			if !ctrl.Deliverable() {
				irqArrived.Wait(p)
				continue
			}
			if _, ok := ctrl.Take(); ok {
				r.l.DrainFabric(p, cpu)
				handled++
			}
		}
	})
}

// recordApplier registers a drain applier that records every applied
// batch, keyed by draining CPU.
func (r *rig) recordApplier() *[][]Inval {
	var applied [][]Inval
	r.l.SetDrainApplier(func(p *sim.Proc, cpu mach.CPU, batch []Inval) {
		applied = append(applied, batch)
	})
	return &applied
}

func TestCanCoalesceRules(t *testing.T) {
	base := Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}
	next := func(mut func(*Inval)) *Inval {
		n := Inval{ASID: 1, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 2, GenHi: 2}
		if mut != nil {
			mut(&n)
		}
		return &n
	}
	cases := []struct {
		name string
		prev Inval
		next *Inval
		want bool
	}{
		{"adjacent", base, next(nil), true},
		{"other-space", base, next(func(n *Inval) { n.ASID = 2 }), false},
		{"gen-gap", base, next(func(n *Inval) { n.GenLo, n.GenHi = 3, 3 }), false},
		{"range-gap", base, next(func(n *Inval) { n.Start, n.End = 0x4000, 0x5000 }), false},
		{"stride-mismatch", base, next(func(n *Inval) { n.Stride = 1 << 21 }), false},
		{"full-next", base, next(func(n *Inval) { n.Full = true }), false},
		{"full-prev-absorbs", Inval{ASID: 1, GenLo: 1, GenHi: 1, Full: true}, next(nil), true},
	}
	for _, c := range cases {
		prev := c.prev
		if got := canCoalesce(&prev, c.next); got != c.want {
			t.Errorf("%s: canCoalesce = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMergeInval(t *testing.T) {
	var l Layer
	// A merge extends the span in both directions and the generation run.
	prev := Inval{ASID: 1, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 2, GenHi: 2}
	l.mergeInval(&prev, &Inval{ASID: 1, Start: 0x1000, End: 0x4000, Stride: 4096, GenLo: 3, GenHi: 4})
	if prev.Start != 0x1000 || prev.End != 0x4000 || prev.GenLo != 2 || prev.GenHi != 4 {
		t.Fatalf("merged = %+v", prev)
	}
	// A full prev only advances its generation run.
	full := Inval{ASID: 1, GenLo: 1, GenHi: 1, Full: true}
	l.mergeInval(&full, &Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 2, GenHi: 2})
	if !full.Full || full.GenHi != 2 || full.Start != 0 || full.End != 0 {
		t.Fatalf("full merge = %+v", full)
	}
	// A full next widens the merged entry.
	prev = Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}
	l.mergeInval(&prev, &Inval{ASID: 1, GenLo: 2, GenHi: 2, Full: true})
	if !prev.Full || prev.GenHi != 2 {
		t.Fatalf("widening merge = %+v", prev)
	}

	// mergeInval reads the endpoints only through comparisons, so pages
	// 0-5 realise every ordering of two ranges' four endpoints, ties
	// included: the enumeration covers every merge the ring can make.
	t.Run("exhaustive", func(t *testing.T) {
		pairs := 0
		forEachMergeablePair(func(prev, next Inval) {
			pairs++
			got := prev
			l.mergeInval(&got, &next)
			if msg := mergeBreaks(prev, next, got); msg != "" {
				t.Errorf("merge of %+v into %+v = %+v: %s", next, prev, got, msg)
			}
		})
		if pairs == 0 {
			t.Fatal("no pair coalesces")
		}
		t.Logf("%d mergeable pairs", pairs)
	})
	// The seeded shrink keeps next's end, so the same enumeration must
	// find merges that drop prev's tail.
	t.Run("shrink-mutant", func(t *testing.T) {
		broken := Layer{mutant: fault.MutantCoalesceShrink}
		losses := 0
		forEachMergeablePair(func(prev, next Inval) {
			got := prev
			broken.mergeInval(&got, &next)
			if mergeBreaks(prev, next, got) != "" {
				losses++
			}
		})
		if losses == 0 {
			t.Fatal("the shrink mutant passed every merge")
		}
		t.Logf("%d merges lose coverage", losses)
	})
}

// forEachMergeablePair calls fn with every prev/next pair canCoalesce
// accepts among non-empty ranges with endpoints on pages 0-5, under
// both Full flags, with next's generation run following prev's.
func forEachMergeablePair(fn func(prev, next Inval)) {
	var ranges [][2]uint64
	for lo := uint64(0); lo < 6; lo++ {
		for hi := lo + 1; hi < 6; hi++ {
			ranges = append(ranges, [2]uint64{lo << 12, hi << 12})
		}
	}
	for _, pr := range ranges {
		for _, nr := range ranges {
			for _, full := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				prev := Inval{ASID: 1, Start: pr[0], End: pr[1], Stride: 4096, GenLo: 1, GenHi: 2, Full: full[0]}
				next := Inval{ASID: 1, Start: nr[0], End: nr[1], Stride: 4096, GenLo: 3, GenHi: 4, Full: full[1]}
				if canCoalesce(&prev, &next) {
					fn(prev, next)
				}
			}
		}
	}
}

// mergeBreaks checks mergeInval's contract on one merge: got is full or
// spans exactly [min Start, max End), and its generation run starts at
// prev's and ends at next's. It returns what broke, "" when nothing did.
func mergeBreaks(prev, next, got Inval) string {
	if got.GenLo != prev.GenLo || got.GenHi != next.GenHi {
		return "generation run is not prev's start to next's end"
	}
	if got.Full {
		return ""
	}
	if prev.Full || next.Full {
		return "a full input merged into a ranged entry"
	}
	if got.Start != min(prev.Start, next.Start) || got.End != max(prev.End, next.End) {
		return "span is not [min Start, max End)"
	}
	return ""
}

func TestPostAsyncRoundTrip(t *testing.T) {
	r := newRig(false)
	if r.l.AsyncEnabled() {
		t.Fatal("fabric enabled before an applier was registered")
	}
	applied := r.recordApplier()
	if !r.l.AsyncEnabled() {
		t.Fatal("fabric not enabled by SetDrainApplier")
	}
	r.spawnFabricResponder(2, 1)
	inv := Inval{AS: "mm", ASID: 7, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}
	completed := false
	var b *AsyncBatch
	var postedAt, completedAt sim.Time
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2), inv, func(*sim.Proc) { completed = true; completedAt = r.eng.Now() })
		postedAt = p.Now()
		if b.Done() {
			t.Error("batch done at post time: initiator must not wait")
		}
	})
	r.eng.Run()
	if !completed || !b.Done() {
		t.Fatal("batch never completed")
	}
	if completedAt <= postedAt {
		t.Fatalf("completion at %d not after the post returned at %d", completedAt, postedAt)
	}
	if len(*applied) != 1 || len((*applied)[0]) != 1 || (*applied)[0][0] != inv {
		t.Fatalf("applied = %+v, want the posted inval once", *applied)
	}
	if posted, acked := r.l.FabricSeqs(2); posted != 1 || acked != 1 {
		t.Fatalf("seqs = (%d, %d), want (1, 1)", posted, acked)
	}
	if n := r.l.OutstandingBatches(); n != 0 {
		t.Fatalf("OutstandingBatches = %d", n)
	}
	s := r.l.Stats()
	if s.AsyncPosts != 1 || s.AsyncKicks != 1 || s.AsyncBatches != 1 ||
		s.AsyncDrains != 1 || s.AsyncApplied != 1 || s.AsyncFullDrains != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPostAsyncCoalescesAndElidesKick(t *testing.T) {
	r := newRig(false)
	applied := r.recordApplier()
	// No responder: the ring stays populated until the deferred drain
	// (modeling the kernel's return-to-user sweep, which needs no IPI).
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{AS: "mm", ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{AS: "mm", ASID: 1, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 2, GenHi: 2}, nil)
	})
	r.eng.Run()
	if entries, full := r.l.FabricPending(2); entries != 1 || full {
		t.Fatalf("pending = (%d, %v), want one merged entry", entries, full)
	}
	s := r.l.Stats()
	if s.AsyncPosts != 2 || s.AsyncCoalesced != 1 || s.AsyncKicks != 1 || s.AsyncKicksElided != 1 {
		t.Fatalf("stats = %+v, want 2 posts, 1 coalesced, 1 kick + 1 elided", s)
	}
	r.eng.Go("drainer", func(p *sim.Proc) { r.l.DrainFabric(p, 2) })
	r.eng.Run()
	if len(*applied) != 1 || len((*applied)[0]) != 1 {
		t.Fatalf("applied = %+v, want one batch of one merged entry", *applied)
	}
	got := (*applied)[0][0]
	want := Inval{AS: "mm", ASID: 1, Start: 0x1000, End: 0x3000, Stride: 4096, GenLo: 1, GenHi: 2}
	if got != want {
		t.Fatalf("merged entry = %+v, want %+v", got, want)
	}
	if posted, acked := r.l.FabricSeqs(2); posted != 2 || acked != 2 {
		t.Fatalf("seqs = (%d, %d): the merged drain must ack both posts", posted, acked)
	}
	if n := r.l.OutstandingBatches(); n != 0 {
		t.Fatalf("OutstandingBatches = %d after drain", n)
	}
}

func TestPostAsyncNoCoalesceAcrossSpacesOrGenGaps(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		// Different address space: no merge.
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 2, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		// Same space, adjacent range, but a generation gap: no merge
		// (the merged entry could no longer advance the local gen exactly).
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 2, Start: 0x3000, End: 0x4000, Stride: 4096, GenLo: 3, GenHi: 3}, nil)
	})
	r.eng.Run()
	if entries, _ := r.l.FabricPending(2); entries != 3 {
		t.Fatalf("pending = %d entries, want 3 unmerged", entries)
	}
	if got := r.l.Stats().AsyncCoalesced; got != 0 {
		t.Fatalf("AsyncCoalesced = %d, want 0", got)
	}
}

func TestPostAsyncOverflowCollapsesToFlushAll(t *testing.T) {
	r := newRig(false)
	applied := r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	n := RingSize + 1
	r.eng.Go("initiator", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Distinct address spaces so nothing coalesces.
			r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{
				ASID: uint32(i), Start: 0x1000, End: 0x2000, Stride: 4096,
				GenLo: uint64(i + 1), GenHi: uint64(i + 1),
			}, nil)
		}
	})
	r.eng.Run()
	entries, full := r.l.FabricPending(2)
	if entries != RingSize || !full {
		t.Fatalf("pending = (%d, %v), want a full ring with flush_all set", entries, full)
	}
	if got := r.l.Stats().AsyncOverflows; got != 1 {
		t.Fatalf("AsyncOverflows = %d, want 1", got)
	}
	r.eng.Go("drainer", func(p *sim.Proc) { r.l.DrainFabric(p, 2) })
	r.eng.Run()
	if len(*applied) != 1 || len((*applied)[0]) != 1 {
		t.Fatalf("applied = %+v, want one widened batch", *applied)
	}
	got := (*applied)[0][0]
	// The overflowing post itself never entered the ring, so the widened
	// entry carries the highest in-ring generation; the full flush
	// subsumes the dropped range and the ack is by sequence, not gen.
	if !got.Full || got.AS != nil || got.GenHi != uint64(RingSize) {
		t.Fatalf("widened entry = %+v, want Full through gen %d", got, RingSize)
	}
	if posted, acked := r.l.FabricSeqs(2); posted != uint64(n) || acked != uint64(n) {
		t.Fatalf("seqs = (%d, %d): the full drain must ack every post", posted, acked)
	}
	s := r.l.Stats()
	if s.AsyncFullDrains != 1 || s.AsyncApplied != 1 {
		t.Fatalf("stats = %+v, want 1 full drain applying 1 widened entry", s)
	}
	if n := r.l.OutstandingBatches(); n != 0 {
		t.Fatalf("OutstandingBatches = %d: the collapse must still complete all batches", n)
	}
}

func TestDrainFabricEmptyIsFree(t *testing.T) {
	r := newRig(false)
	// Without an applier the drain is a no-op even on kernels that sweep
	// unconditionally (the sync tier's IRQ path).
	r.eng.Go("disabled", func(p *sim.Proc) { r.l.DrainFabric(p, 2) })
	r.eng.Run()
	r.recordApplier()
	r.eng.Go("drainer", func(p *sim.Proc) {
		before := p.Now()
		r.l.DrainFabric(p, 2)
		if p.Now() != before {
			t.Error("empty drain charged time")
		}
	})
	r.eng.Run()
	if got := r.l.Stats().AsyncDrains; got != 0 {
		t.Fatalf("AsyncDrains = %d on an empty ring", got)
	}
}

func TestMultiTargetBatchCompletesOnLastAck(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.spawnFabricResponder(2, 1)  // same socket: drains first
	r.spawnFabricResponder(30, 1) // cross socket: drains later
	completions := 0
	var b *AsyncBatch
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2, 30),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1},
			func(*sim.Proc) { completions++ })
	})
	r.eng.Run()
	if completions != 1 || !b.Done() {
		t.Fatalf("completions = %d, done = %v; want exactly one completion", completions, b.Done())
	}
	for _, cpu := range []mach.CPU{2, 30} {
		if posted, acked := r.l.FabricSeqs(cpu); acked != posted {
			t.Fatalf("cpu %d: acked %d of %d", cpu, acked, posted)
		}
	}
	if s := r.l.Stats(); s.AsyncDrains != 2 || s.AsyncKicks != 2 {
		t.Fatalf("stats = %+v, want both targets kicked and drained", s)
	}
}

func TestWatchdogRekicksOnDroppedKick(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	// Every kick is dropped; the burst bound forces the third send
	// through. The watchdog must detect the posted-vs-acked gap and
	// re-ring the doorbell until the drain lands.
	pl := fault.New(7, fault.Spec{DropP: 1, DropBurstMax: 2})
	r.bus.SetFaultPlane(pl)
	r.l.SetFaultPlane(pl)
	r.spawnFabricResponder(2, 1)
	var b *AsyncBatch
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
	})
	r.eng.Run()
	if !b.Done() {
		t.Fatal("batch never completed despite rekicks")
	}
	s := r.l.Stats()
	if s.AsyncRekicks != 2 || b.Retries() != 2 {
		t.Fatalf("rekicks = %d, retries = %d; want 2 (post and first rekick dropped)", s.AsyncRekicks, b.Retries())
	}
	if s.AckTimeouts != 2 {
		t.Fatalf("AckTimeouts = %d, want 2", s.AckTimeouts)
	}
	if s.AsyncDegrades != 0 || s.AsyncFullDrains != 0 {
		t.Fatalf("stats = %+v: recovery before MaxKickRetries must keep precision", s)
	}
}

func TestWatchdogRekicksOnlyLaggingTargets(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	// CPU 2's controller is masked (its kick and rekicks vanish); CPU 4
	// drains immediately. The watchdog must re-ring only the lagging
	// doorbell — the acked target's sequence check skips it.
	r.l.SetFaultPlane(fault.New(7, fault.Spec{})) // armed, injects nothing
	r.bus.Controller(2).SetMasked(true)
	r.spawnFabricResponder(4, 2)
	var b *AsyncBatch
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2, 4),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		// The second batch exercises the already-started watchdog.
		r.l.PostAsync(p, 0, mach.MaskOf(4),
			Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 2, GenHi: 2}, nil)
		// Unmask once the first rekick is due, so recovery can land.
		p.Delay(uint64(2 * r.cost.IPIAckTimeout))
		r.bus.Controller(2).SetMasked(false)
		r.spawnFabricResponder(2, 1)
	})
	r.eng.Run()
	if !b.Done() {
		t.Fatal("batch never completed after unmasking")
	}
	s := r.l.Stats()
	if s.AsyncRekicks == 0 {
		t.Fatal("watchdog never rekicked the lagging target")
	}
	if _, acked := r.l.FabricSeqs(4); acked != 2 {
		t.Fatalf("cpu 4 acked %d, want 2 (both posts, one drain each)", acked)
	}
}

func TestWatchdogDegradesToFullAfterMaxRetries(t *testing.T) {
	r := newRig(false)
	applied := r.recordApplier()
	// Six consecutive drops: the post and five rekicks are lost, so the
	// ladder runs past MaxKickRetries and must widen the stranded ring
	// to flush_all before the seventh (forced) delivery drains it.
	pl := fault.New(7, fault.Spec{DropP: 1, DropBurstMax: 6})
	r.bus.SetFaultPlane(pl)
	r.l.SetFaultPlane(pl)
	r.spawnFabricResponder(2, 1)
	var b *AsyncBatch
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
	})
	r.eng.Run()
	if !b.Done() {
		t.Fatal("batch never completed despite the degrade ladder")
	}
	s := r.l.Stats()
	if s.AsyncDegrades != 1 {
		t.Fatalf("AsyncDegrades = %d, want exactly 1 (the flag is sticky)", s.AsyncDegrades)
	}
	if s.AsyncFullDrains != 1 {
		t.Fatalf("AsyncFullDrains = %d: the degraded drain must be a full flush", s.AsyncFullDrains)
	}
	if b.Retries() != MaxKickRetries {
		t.Fatalf("retries = %d, want capped at %d", b.Retries(), MaxKickRetries)
	}
	if len(*applied) != 1 || len((*applied)[0]) != 1 || !(*applied)[0][0].Full {
		t.Fatalf("applied = %+v, want one widened full entry", *applied)
	}
}

func TestWatchdogNotArmedWithoutFaultPlane(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.spawnFabricResponder(2, 1)
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
	})
	r.eng.Run()
	if r.l.wdCond != nil {
		t.Fatal("watchdog started on a fault-free run")
	}
	// NoRetry is the deliberately broken recovery variant: the plane is
	// attached but must not arm the watchdog either.
	pl := fault.New(7, fault.Spec{DropP: 1, NoRetry: true})
	r.l.SetFaultPlane(pl)
	r.eng.Go("initiator2", func(p *sim.Proc) {
		r.bus.Controller(4).SetMasked(true)
		r.l.PostAsync(p, 0, mach.MaskOf(4),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 2, GenHi: 2}, nil)
	})
	r.eng.Run()
	if r.l.wdCond != nil {
		t.Fatal("watchdog armed under noretry (the broken variant must strand the batch)")
	}
	if r.l.OutstandingBatches() != 1 {
		t.Fatalf("OutstandingBatches = %d, want the stranded batch left open", r.l.OutstandingBatches())
	}
}

func TestPostAsyncSelfTargetPanics(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.eng.Go("init", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-target post did not panic")
			}
		}()
		r.l.PostAsync(p, 0, mach.MaskOf(0), Inval{}, nil)
	})
	r.eng.Run()
}

// TestPostAsyncMalformedInvalPanics: a ranged entry whose generation
// run is empty cannot advance any target's local generation, so posting
// one panics.
func TestPostAsyncMalformedInvalPanics(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.eng.Go("init", func(p *sim.Proc) {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "malformed inval") {
				t.Errorf("malformed post panicked with %q, want a malformed inval panic", msg)
			}
		}()
		r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 3, GenHi: 2}, nil)
	})
	r.eng.Run()
}

// TestDrainAckBelowPreviousPanics: a drain acks the posted sequence, so
// an ack already above it would move the acked sequence backwards; the
// drain panics, naming the CPU.
func TestDrainAckBelowPreviousPanics(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true) // only the test drains
	r.eng.Go("init", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		r.l.fabricOf(2).fabAckSeq = 5
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "cpu2 acks sequence 1 below its previous ack 5") {
				t.Errorf("drain panicked with %q, want the cpu2 ack regression", msg)
			}
		}()
		r.l.DrainFabric(p, 2)
	})
	r.eng.Run()
}

// TestRetireDoneBatchPanics: a completed batch leaves the outstanding
// list, so retiring one found there would run its callback a second
// time; retireBatches panics instead.
func TestRetireDoneBatchPanics(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true) // only the test drains
	completions := 0
	r.eng.Go("init", func(p *sim.Proc) {
		b := r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1},
			func(*sim.Proc) { completions++ })
		r.l.DrainFabric(p, 2)
		if !b.Done() || completions != 1 {
			t.Errorf("drain left the batch done=%v after %d completions", b.Done(), completions)
			return
		}
		r.l.batches = append(r.l.batches, b)
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "batch from cpu0 completed twice") {
				t.Errorf("retirement panicked with %q, want the double completion", msg)
			}
		}()
		r.l.retireBatches(p, 2, 1, 1)
	})
	r.eng.Run()
	if completions != 1 {
		t.Fatalf("callback ran %d times, want once", completions)
	}
}

func TestPostAsyncWithoutApplierPanics(t *testing.T) {
	r := newRig(false)
	r.eng.Go("init", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("post without a drain applier did not panic")
			}
		}()
		r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{}, nil)
	})
	r.eng.Run()
}

func TestPostAsyncEmptyTargetsCompletesInline(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	completed := false
	r.eng.Go("init", func(p *sim.Proc) {
		b := r.l.PostAsync(p, 0, mach.CPUMask{}, Inval{}, func(*sim.Proc) { completed = true })
		if !b.Done() || !completed {
			t.Error("empty-target batch must complete inline")
		}
	})
	r.eng.Run()
	if got := r.l.Stats().AsyncBatches; got != 0 {
		t.Fatalf("AsyncBatches = %d: an empty post is not a batch", got)
	}
}

func TestFabricRaceModelClean(t *testing.T) {
	// With the happens-before checker attached, the full
	// post→kick→drain→ack→completion exchange (including a coalesced
	// second post) must model clean sync edges.
	r := newRig(false)
	d := race.New(r.eng)
	r.l.SetRaceDetector(d)
	r.recordApplier()
	r.spawnFabricResponder(2, 1)
	done := false
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1},
			func(*sim.Proc) { done = true })
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 2, GenHi: 2}, nil)
		// The instrumented peeks are acquire-side loads, not races.
		r.l.FabricPending(2)
		r.l.FabricSeqs(2)
	})
	r.eng.Run()
	if !done {
		t.Fatal("batch never completed")
	}
	if sum := d.Finish(); !sum.OK() {
		t.Fatalf("race model flagged the fabric protocol: %+v", sum.Races)
	}
}

// TestPostAsyncExactlyAtRingSizeNoOverflow pins the ring bound: the
// append guard admits exactly RingSize distinct entries — the post that
// lands the ring at capacity is an append, not an overflow — and only
// the RingSize+1'th distinct post trips the flush_all collapse.
func TestPostAsyncExactlyAtRingSizeNoOverflow(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		for i := 0; i < RingSize; i++ {
			// Distinct address spaces so nothing coalesces.
			r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{
				ASID: uint32(i), Start: 0x1000, End: 0x2000, Stride: 4096,
				GenLo: uint64(i + 1), GenHi: uint64(i + 1),
			}, nil)
		}
	})
	r.eng.Run()
	if entries, full := r.l.FabricPending(2); entries != RingSize || full {
		t.Fatalf("pending = (%d, %v), want the ring exactly full with no collapse", entries, full)
	}
	if s := r.l.Stats(); s.AsyncOverflows != 0 || s.AsyncCoalesced != 0 {
		t.Fatalf("stats = %+v, want no overflow and no coalesce at exactly RingSize", s)
	}
}

// TestPostAsyncOverflowEntryStillCoalesces drives a post into a ring
// that has already collapsed to flush_all: the coalesce check runs
// before the capacity guard, so a post mergeable with the ring tail
// still merges in place — no second overflow is counted and the
// pending entry count never exceeds RingSize.
func TestPostAsyncOverflowEntryStillCoalesces(t *testing.T) {
	r := newRig(false)
	applied := r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		for i := 0; i < RingSize; i++ {
			r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{
				ASID: uint32(i), Start: 0x1000, End: 0x2000, Stride: 4096,
				GenLo: uint64(i + 1), GenHi: uint64(i + 1),
			}, nil)
		}
		// Non-coalescible overflow: collapses to flush_all. Its gen run
		// is deliberately far away so it cannot merge with the tail.
		r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{
			ASID: 99, Start: 0x9000, End: 0xa000, Stride: 4096,
			GenLo: 100, GenHi: 100,
		}, nil)
		// Mergeable with the ring tail (same space, gen run contiguous
		// with the tail's, adjacent range): coalesces in place even
		// though the ring is full.
		r.l.PostAsync(p, 0, mach.MaskOf(2), Inval{
			ASID: uint32(RingSize - 1), Start: 0x2000, End: 0x3000, Stride: 4096,
			GenLo: uint64(RingSize + 1), GenHi: uint64(RingSize + 1),
		}, nil)
	})
	r.eng.Run()
	if entries, full := r.l.FabricPending(2); entries != RingSize || !full {
		t.Fatalf("pending = (%d, %v), want a full ring with flush_all set", entries, full)
	}
	s := r.l.Stats()
	if s.AsyncOverflows != 1 || s.AsyncCoalesced != 1 {
		t.Fatalf("stats = %+v, want exactly 1 overflow and 1 in-place coalesce", s)
	}
	r.eng.Go("drainer", func(p *sim.Proc) { r.l.DrainFabric(p, 2) })
	r.eng.Run()
	if len(*applied) != 1 || len((*applied)[0]) != 1 || !(*applied)[0][0].Full {
		t.Fatalf("applied = %+v, want one widened full-flush batch", *applied)
	}
	if posted, acked := r.l.FabricSeqs(2); posted != uint64(RingSize+2) || acked != posted {
		t.Fatalf("seqs = (%d, %d): the full drain must ack every post", posted, acked)
	}
}

// TestPostAsyncAdjacentDifferentASIDStaysDistinct pins the first
// canCoalesce clause at the ring level: range-adjacent invals for
// different address spaces must stay separate entries — merging them
// would flush one space's range under another's generation run.
func TestPostAsyncAdjacentDifferentASIDStaysDistinct(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 2, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 2, GenHi: 2}, nil)
	})
	r.eng.Run()
	if entries, _ := r.l.FabricPending(2); entries != 2 {
		t.Fatalf("pending = %d entries, want 2 distinct", entries)
	}
	if got := r.l.Stats().AsyncCoalesced; got != 0 {
		t.Fatalf("AsyncCoalesced = %d, want 0 across address spaces", got)
	}
}

// TestPostAsyncDiscontiguousGenRunStaysDistinct pins the generation
// clause at the ring level: a range-adjacent inval whose run does not
// start exactly at the tail's GenHi+1 must stay a separate entry — a
// merged entry with a gen hole could ack generations it never flushed.
func TestPostAsyncDiscontiguousGenRunStaysDistinct(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x1000, End: 0x2000, Stride: 4096, GenLo: 1, GenHi: 2}, nil)
		r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0x2000, End: 0x3000, Stride: 4096, GenLo: 4, GenHi: 4}, nil)
	})
	r.eng.Run()
	if entries, _ := r.l.FabricPending(2); entries != 2 {
		t.Fatalf("pending = %d entries, want 2 distinct", entries)
	}
	if got := r.l.Stats().AsyncCoalesced; got != 0 {
		t.Fatalf("AsyncCoalesced = %d, want 0 across a generation hole", got)
	}
}
