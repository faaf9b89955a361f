// Fixture: the guarded counterpart of bad_fabproof.go — the same ring
// type under smp's names, with an append the fabproof tier proves
// bounded by the declared RingSize (the length check dominates the
// append): zero findings, a positive test that the bound refinement
// works on fixture fabrics too.
package fabprooffix

type inval struct {
	Start, End   uint64
	GenLo, GenHi uint64
	Full         bool
}

type fabricCPU struct {
	fabRing     []inval
	fabPostSeq  uint64
	fabAckSeq   uint64
	fabFlushAll bool
}

const RingSize = 8

func appendGuarded(rc *fabricCPU, inv inval) {
	if len(rc.fabRing) >= RingSize {
		rc.fabFlushAll = true
		return
	}
	rc.fabRing = append(rc.fabRing, inv)
}
