// Fixture: an obligation born in a block the dataflow first reaches with
// nothing live — the body of an if. The flushobligation analyzer must
// still run that block and report exactly one finding, the leak at the
// Protect call.
package oblbranch

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
)

func protectSome(ctx *kernel.Ctx, as *mm.AddressSpace, ro bool) {
	if ro {
		fr, err := as.Protect(0, 4096, mm.ProtRead)
		if err != nil {
			return
		}
		_ = fr.Pages
	}
}
