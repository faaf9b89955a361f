// Fixture: banned imports in disguised forms — aliased, blank and dot.
// The determinism analyzer keys on the import path, not the bound name,
// so all three fire (three findings).
package detaliasfix

import (
	_ "math/rand"
	. "math/rand/v2"
	clock "time"
)

func wallNow() int64 { return clock.Now().UnixNano() }

func roll() int { return IntN(6) }
