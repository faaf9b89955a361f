// Fixture: an observer that reads the CPU it captured through an
// instrumented accessor. cpu.Lazy() records an atomic load into the race
// model as the calling CPU's, so the call is the one finding, though it
// starts from captured state rather than from a hook parameter.
package pureracefix

import (
	"shootdown/internal/kernel"
	"shootdown/internal/tlb"
)

func attach(k *kernel.Kernel) {
	for _, cpu := range k.CPUs() {
		cpu.TLB.Hit.Add(func(h tlb.Hit) {
			_ = cpu.Lazy()
		})
	}
}
