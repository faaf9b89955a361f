// Fixture: charging simulated time inside randomized map iteration. The
// detflow analyzer must report exactly three findings: a Delay whose
// argument is the ranged value, one whose argument is the ranged key, and
// a constant-cost Delay in a map-range body — map order still decides
// which iteration charges first.
package maporderfix

import (
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

type flusher struct {
	pending map[uint64]uint64
}

func (f *flusher) drain(p *sim.Proc, c *mach.CostModel) {
	for va, cost := range f.pending {
		p.Delay(cost) // order-dependent timing: nondeterministic
		_ = va
	}
	local := make(map[int]int)
	for k := range local {
		p.Delay(uint64(k))
	}
	for range f.pending {
		p.Delay(c.Invlpg)
	}
	// Iterating without charging time is fine.
	n := 0
	for range f.pending {
		n++
	}
	_ = n
}
