// Fixture: an unbounded ring append the fabproof tier must report as
// exactly one finding. The package declares the fabric's ring type under
// smp's names (fabricCPU with its four ring fields), so fabproof binds
// it, and the append never consults the ring's length — there is no
// capacity check and no full-flush collapse, so the pre-append length
// bound is unprovable and the ring can grow without limit.
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

func appendUnchecked(rc *fabricCPU, inv inval) {
	rc.fabRing = append(rc.fabRing, inv)
}
