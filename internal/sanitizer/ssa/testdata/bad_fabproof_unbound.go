// Fixture: a ring type that drops one of the fabric's declared ring
// fields. fabproof binds the fabric by smp's names, so a fabricCPU
// without fabAckSeq is exactly one finding naming the missing field,
// and no fabric is bound: its unbounded append is not judged.
package fabprooffix

type inval struct {
	Start, End   uint64
	GenLo, GenHi uint64
	Full         bool
}

type fabricCPU struct {
	fabRing     []inval
	fabPostSeq  uint64
	fabFlushAll bool
}

func appendUnbound(rc *fabricCPU, inv inval) {
	rc.fabRing = append(rc.fabRing, inv)
}
