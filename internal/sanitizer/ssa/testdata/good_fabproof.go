// Fixture: the guarded counterpart of bad_fabproof.go — the same
// fabric-shaped struct, with an append the fabproof tier proves bounded
// on its own (the length check dominates the append): zero findings, a
// positive test that the bound refinement works on fixture fabrics too.
package fabprooffix

type inval struct {
	Start, End   uint64
	GenLo, GenHi uint64
	Full         bool
}

type ringCPU struct {
	ring     []inval
	postSeq  uint64
	ackSeq   uint64
	flushAll bool
}

const ringSize = 8

func appendGuarded(rc *ringCPU, inv inval) {
	if len(rc.ring) >= ringSize {
		rc.flushAll = true
		return
	}
	rc.ring = append(rc.ring, inv)
}
