// Fixture: three mutually recursive functions, declared in call order,
// each returning the next one's result on one path and its own
// nondeterminism source on the other. Relabelling a summary from its
// first tainted return every round cycles the three labels forever; a
// summary keeps the label it was first given, so the detflow fixpoint
// stops and the digest is reported once, under the wall-clock label.
package detcycle

import (
	"math/rand"
	"runtime"
	"time"

	"shootdown/internal/mm"
	"shootdown/internal/workload"
)

func cycleDigest(spaces []*mm.AddressSpace) string {
	return workload.StateDigest(spaces[:c1(len(spaces) > 1, len(spaces))])
}

func c1(b bool, n int) int {
	if b {
		return c2(b, n)
	}
	return int(time.Now().UnixNano()) % n
}

func c2(b bool, n int) int {
	if b {
		return c3(b, n)
	}
	return rand.Intn(n)
}

func c3(b bool, n int) int {
	if b {
		return c1(b, n)
	}
	return runtime.NumCPU() % n
}
