// Fixture: wall-clock nondeterminism reaching a state digest through a
// 13-deep wrapper chain, callers declared before callees, so each round
// of the detflow summary fixpoint climbs one level. The fixpoint must run
// until nothing changes and report the StateDigest call; a fixpoint
// stopped after 12 rounds reports nothing.
package detdeep

import (
	"time"

	"shootdown/internal/mm"
	"shootdown/internal/workload"
)

func deepDigest(spaces []*mm.AddressSpace) string {
	return workload.StateDigest(spaces[:w1(len(spaces))])
}

func w1(n int) int { return w2(n) }

func w2(n int) int { return w3(n) }

func w3(n int) int { return w4(n) }

func w4(n int) int { return w5(n) }

func w5(n int) int { return w6(n) }

func w6(n int) int { return w7(n) }

func w7(n int) int { return w8(n) }

func w8(n int) int { return w9(n) }

func w9(n int) int { return w10(n) }

func w10(n int) int { return w11(n) }

func w11(n int) int { return w12(n) }

func w12(n int) int { return w13(n) }

func w13(n int) int { return int(time.Now().UnixNano()) % n }
