// Fixture: a hook that mutates the state it observes through the module's
// own types — exactly two findings. The direct field write goes through
// the hook parameter; the method call mutates through a local alias of
// the parameter, and only the module-wide summaries know NoteContention
// writes its receiver's contention counter.
package purefix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
)

func installImpure(k *kernel.Kernel) {
	k.ASCreated.Add(func(as *mm.AddressSpace) {
		as.KernelPCID = 0
		sem := as.MmapSem
		sem.NoteContention()
	})
}
