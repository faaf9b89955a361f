// Fixture: simulator code importing wall-clock and PRNG packages. The
// determinism analyzer must report exactly two findings, one per import.
package detimportfix

import (
	"math/rand"
	"time"
)

func seedFromClock() int64 {
	rand.Seed(1)
	return time.Now().UnixNano()
}
