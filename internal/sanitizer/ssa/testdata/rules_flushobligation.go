// Fixture: one function per flushobligation rule. The clean functions
// each meet their obligation through one sanctioned path (the error edge,
// fr.Empty()'s true edge, a panic, a range over the slice, a deferred
// discharge, a return, a wrapper the fixpoint proves discharging); the
// others each break one rule. TestFlushObligationRules pins every
// finding by line and message.
package oblrules

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
)

func errorEdge(ctx *kernel.Ctx, as *mm.AddressSpace) error {
	fr, err := as.Unmap(0, 4096)
	if err != nil {
		return err
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
	return nil
}

func emptyEdge(ctx *kernel.Ctx, as *mm.AddressSpace) {
	fr, err := as.Protect(0, 4096, mm.ProtRead)
	if err == nil && !fr.Empty() {
		ctx.K.Flusher().FlushAfter(ctx, as, fr)
	}
}

func panicPath(ctx *kernel.Ctx, as *mm.AddressSpace, ok bool) {
	fr, _ := as.Unmap(0, 4096)
	if !ok {
		panic("a crashing path owes no shootdown")
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
}

func rangeDischarge(ctx *kernel.Ctx, as *mm.AddressSpace) {
	frs, err := as.DedupPages(0, 4096)
	if err != nil {
		return
	}
	for _, fr := range frs {
		ctx.K.Flusher().FlushAfter(ctx, as, fr)
	}
}

// rangeDrop skips an element's shootdown: the next iteration rebinds fr.
func rangeDrop(ctx *kernel.Ctx, as *mm.AddressSpace, skip bool) {
	frs, err := as.DedupPages(0, 4096)
	if err != nil {
		return
	}
	for _, fr := range frs {
		if skip {
			continue
		}
		ctx.K.Flusher().FlushAfter(ctx, as, fr)
	}
}

func deferredDischarge(ctx *kernel.Ctx, as *mm.AddressSpace) {
	fr, _ := as.MadviseDontneed(0, 4096)
	defer ctx.K.Flusher().FlushAfter(ctx, as, fr)
}

// transferUp returns the obligation; transferCaller meets it again.
func transferUp(as *mm.AddressSpace) (mm.FlushRange, error) {
	fr, err := as.Unmap(0, 4096)
	return fr, err
}

func transferCaller(ctx *kernel.Ctx, as *mm.AddressSpace) {
	fr, err := transferUp(as)
	if err != nil {
		return
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
}

// flushVia discharges its parameter on every path, so the fixpoint makes
// it a discharger; flushSometimes leaks on one path, so it is none.
func flushVia(ctx *kernel.Ctx, as *mm.AddressSpace, fr mm.FlushRange) {
	if fr.Empty() {
		return
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
}

func flushSometimes(ctx *kernel.Ctx, as *mm.AddressSpace, fr mm.FlushRange, now bool) {
	if now {
		ctx.K.Flusher().FlushAfter(ctx, as, fr)
	}
}

func viaWrapper(ctx *kernel.Ctx, as *mm.AddressSpace) {
	fr, err := as.Unmap(0, 4096)
	if err != nil {
		return
	}
	flushVia(ctx, as, fr)
}

func viaLeakyWrapper(ctx *kernel.Ctx, as *mm.AddressSpace) {
	fr, err := as.Unmap(0, 4096)
	if err != nil {
		return
	}
	flushSometimes(ctx, as, fr, true)
}

// leakInLiteral installs a literal that leaks when it runs; the finding
// names the literal, not the installing function.
func leakInLiteral(as *mm.AddressSpace) func() {
	return func() {
		fr, err := as.Unmap(0, 4096)
		if err != nil {
			return
		}
		_ = fr.Pages
	}
}

func blankResult(as *mm.AddressSpace) error {
	_, err := as.Unmap(0, 4096)
	return err
}

func bareCall(as *mm.AddressSpace) {
	as.Unmap(0, 4096)
}
