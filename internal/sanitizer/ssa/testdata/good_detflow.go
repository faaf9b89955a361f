// Fixture: the sanctioned shapes around nondeterminism sources. The
// detflow analyzer must stay silent — map iteration order is sanitized by
// sorting before anything derived from it reaches a digest, and event
// timestamps come from the cost model, not the wall clock.
package detfixok

import (
	"sort"

	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sim"
	"shootdown/internal/workload"
)

func sortedDigest(byCPU map[mach.CPU]*mm.AddressSpace) string {
	ids := make([]int, 0, len(byCPU))
	for cpu := range byCPU {
		ids = append(ids, int(cpu))
	}
	// Collect-then-sort is the canonical fix: after sort.Ints the slice is
	// order-stable no matter how the map iterated.
	sort.Ints(ids)
	spaces := make([]*mm.AddressSpace, 0, len(ids))
	for _, id := range ids {
		spaces = append(spaces, byCPU[mach.CPU(id)])
	}
	return workload.StateDigest(spaces)
}

func deterministicDelay(p *sim.Proc, c *mach.CostModel) {
	p.Delay(c.Invlpg)
}
