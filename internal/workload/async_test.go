package workload

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sanitizer"
	"shootdown/internal/syscalls"
)

// asyncAll is the all-optimizations tier with shootdown dispatch routed
// through the per-CPU invalidation rings.
func asyncAll() core.Config {
	cfg := core.All()
	cfg.AsyncShootdown = true
	return cfg
}

// runAsyncStaleTouch drives the fabric's ack-after-apply invariant: a
// responder on CPU 1 caches a translation and sits in user mode while
// the initiator on CPU 0 madvises the page away (an async post), then
// touches the page again after the batch has completed. On the real
// tier the IRQ-entry drain flushed the entry before the responder
// returned to user, so the second touch refaults cleanly; the broken
// variant acks before the flush lands and the touch goes through the
// stale entry outside any open window.
func runAsyncStaleTouch(w *World) {
	as := w.K.NewAddressSpace()
	var va uint64
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(50_000)
		if err := ctx.Touch(va, mm.AccessRead); err != nil {
			panic(err)
		}
		ctx.UserRun(2_000_000)
		if err := ctx.Touch(va, mm.AccessRead); err != nil {
			panic(err)
		}
	}}
	w.K.CPU(1).Spawn(responder)
	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		va = v.Start
		if err := ctx.Touch(va, mm.AccessWrite); err != nil {
			panic(err)
		}
		ctx.UserRun(200_000)
		if err := syscalls.MadviseDontneed(ctx, va, pg); err != nil {
			panic(err)
		}
	}}
	w.K.CPU(0).Spawn(initiator)
	w.Eng.Run()
}

// TestBrokenAckBeforeDrainCaughtExactlyOnce plants the deliberately
// broken fabric variant — the responder acks its batch before the
// deferred flush lands — and demands the shadow-TLB oracle convict it
// as exactly one stale-translation: the responder's post-completion
// touch through the unflushed entry.
func TestBrokenAckBeforeDrainCaughtExactlyOnce(t *testing.T) {
	cfg := asyncAll()
	cfg.BrokenAckBeforeDrain = true
	w := NewWorld(Safe, cfg, 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	runAsyncStaleTouch(w)
	if got := w.F.Stats().AsyncShootdowns; got == 0 {
		t.Fatal("no async shootdown posted: the scenario missed the fabric path")
	}
	sum := chk.Finish()
	if len(sum.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1:\n%s", len(sum.Violations), sum.Report())
	}
	if sum.Violations[0].Kind != "stale-translation" {
		t.Fatalf("violation kind = %q, want stale-translation:\n%s", sum.Violations[0].Kind, sum.Report())
	}
}

// TestAsyncTierStaleTouchClean is the positive companion: the same
// program on the real fabric must drain at IRQ entry before acking, so
// the oracle sees a fully coherent protocol.
func TestAsyncTierStaleTouchClean(t *testing.T) {
	w := NewWorld(Safe, asyncAll(), 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	runAsyncStaleTouch(w)
	st := w.K.SMP.Stats()
	if st.AsyncPosts == 0 || st.AsyncDrains == 0 {
		t.Fatalf("fabric not exercised: %+v", st)
	}
	if n := w.K.SMP.OutstandingBatches(); n != 0 {
		t.Fatalf("OutstandingBatches = %d at quiesce", n)
	}
	if sum := chk.Finish(); !sum.OK() {
		t.Fatalf("real async tier convicted:\n%s", sum.Report())
	}
}

// TestAsyncTierPreservesState pins the fabric's semantic neutrality as
// a unit test (the experiments sweep checks it too, under faults):
// every scenario's canonical final state under the async tier must be
// byte-identical to the synchronous all-optimizations tier.
func TestAsyncTierPreservesState(t *testing.T) {
	for _, s := range Scenarios() {
		run := func(cfg core.Config) string {
			w := NewWorld(Safe, cfg, 11)
			defer w.Close()
			return StateDigest(s.Run(w))
		}
		syncD, asyncD := run(core.All()), run(asyncAll())
		if syncD != asyncD {
			t.Errorf("%s: async digest %s != sync %s", s.Name, asyncD, syncD)
		}
	}
}

// coalesceFaults is the deterministic wire-latency schedule the
// coalesce scenario runs under: every kick IPI is delayed by a
// seed-determined amount well under the ack timeout, so the first ring
// entry is still queued when the second post lands and the two invals
// meet in the ring. Both the broken and the sound variant use the same
// spec and seed, so they see byte-identical timing.
var coalesceFaults = fault.Spec{DelayP: 1, DelayMax: 12_000}

// runAsyncCoalesceTouch drives the fabric's coalescing soundness: the
// responder — cross-socket, behind the injected kick delay above —
// caches a translation in the middle of a three-page mapping and sits
// in user mode while the initiator on
// CPU 0 issues two back-to-back madvises — first the upper two pages
// (covering the responder's cached page), then the page below, adjacent
// and ending *before* the first inval's end. The two posts merge in the
// responder's ring; a sound merge keeps [min(Start), max(End)) and the
// drain flushes everything, while the BrokenCoalesceShrink variant
// adopts the newer end and silently stops covering the older entry's
// tail — the responder's post-completion touch then goes through the
// stale entry even though its generation bookkeeping says current.
func runAsyncCoalesceTouch(w *World) {
	as := w.K.NewAddressSpace()
	remote := mach.CPU(w.K.Topo.NumCPUs() / 2) // first CPU of the far socket
	var va uint64
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(50_000)
		if err := ctx.Touch(va+2*pg, mm.AccessRead); err != nil {
			panic(err)
		}
		ctx.UserRun(2_000_000)
		if err := ctx.Touch(va+2*pg, mm.AccessRead); err != nil {
			panic(err)
		}
	}}
	w.K.CPU(remote).Spawn(responder)
	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 3*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		va = v.Start
		for off := uint64(0); off < 3*pg; off += pg {
			if err := ctx.Touch(va+off, mm.AccessWrite); err != nil {
				panic(err)
			}
		}
		ctx.UserRun(200_000)
		// Older inval: [va+pg, va+3pg) — spans the responder's cached page.
		if err := syscalls.MadviseDontneed(ctx, va+pg, 2*pg); err != nil {
			panic(err)
		}
		// Newer inval: [va, va+pg) — adjacent below and ending before the
		// older entry's end, the exact shape the broken merge shrinks.
		if err := syscalls.MadviseDontneed(ctx, va, pg); err != nil {
			panic(err)
		}
	}}
	w.K.CPU(0).Spawn(initiator)
	w.Eng.Run()
}

// TestBrokenCoalesceShrinkCaughtExactlyOnce plants the deliberately
// broken coalescing variant and demands the shadow-TLB oracle convict
// it as exactly one stale-translation — the dynamic half of the
// cross-validation contract whose static half is the fabproof tier's
// single coalesce coverage-loss witness
// (ssa.TestFabproofBrokenCoalesceWitness).
func TestBrokenCoalesceShrinkCaughtExactlyOnce(t *testing.T) {
	cfg := asyncAll()
	cfg.BrokenCoalesceShrink = true
	w := Template{Faults: coalesceFaults}.boot(Safe, cfg, 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	runAsyncCoalesceTouch(w)
	if got := w.K.SMP.Stats().AsyncCoalesced; got == 0 {
		t.Fatal("no in-ring coalesce happened: the scenario missed the merge path")
	}
	sum := chk.Finish()
	if len(sum.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1:\n%s", len(sum.Violations), sum.Report())
	}
	if sum.Violations[0].Kind != "stale-translation" {
		t.Fatalf("violation kind = %q, want stale-translation:\n%s", sum.Violations[0].Kind, sum.Report())
	}
}

// TestAsyncCoalesceTouchClean is the positive companion: the same
// program under the sound merge must flush the full merged span, so
// the oracle sees a coherent protocol.
func TestAsyncCoalesceTouchClean(t *testing.T) {
	w := Template{Faults: coalesceFaults}.boot(Safe, asyncAll(), 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	runAsyncCoalesceTouch(w)
	if got := w.K.SMP.Stats().AsyncCoalesced; got == 0 {
		t.Fatal("no in-ring coalesce happened: the scenario missed the merge path")
	}
	if sum := chk.Finish(); !sum.OK() {
		t.Fatalf("sound coalescing convicted:\n%s", sum.Report())
	}
}
