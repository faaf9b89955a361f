package experiments

import "testing"

// TestRecoveryGolden pins the ack-recovery ladder's observable counts on
// both tiers: the seed-1 quick render of the faults experiment (sync ack
// timeouts, rekicks, degraded-full escalations and the longest stall) and
// of the async experiment (the watchdog's rekicks and degrades). A ladder
// that degrades one timeout late, or backs off to a different deadline,
// moves these counts without breaking any coherence check. -update
// rewrites testdata/recovery.golden.
func TestRecoveryGolden(t *testing.T) {
	got := append(append([]byte(nil), serialRender("faults", 1)...), serialRender("async", 1)...)
	compareReport(t, "recovery.golden", string(got))
}
