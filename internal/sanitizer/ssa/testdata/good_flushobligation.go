// Fixture: every sanctioned way of meeting a flush obligation. The
// flushobligation analyzer must report nothing here.
package oblgood

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
)

// okMunmap discharges through the Flusher on the success path; the error
// path owes nothing.
func okMunmap(ctx *kernel.Ctx, as *mm.AddressSpace, addr, length uint64) error {
	fr, err := as.Unmap(addr, length)
	if err != nil {
		return err
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
	return nil
}

// transferUp returns the obligation to its caller, where the analyzer
// births it again — the contract follows the value up the call graph.
func transferUp(as *mm.AddressSpace, addr, length uint64) (mm.FlushRange, error) {
	return as.Unmap(addr, length)
}

// emptyGuard releases the obligation on the fr.Empty() edge, mirroring
// syscalls.Fork.
func emptyGuard(ctx *kernel.Ctx, as *mm.AddressSpace, addr, length uint64) {
	fr, err := as.Unmap(addr, length)
	if err != nil {
		return
	}
	if fr.Empty() {
		return
	}
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
}
