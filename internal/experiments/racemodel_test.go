package experiments

import (
	"testing"
)

// TestRaceModelQuickSuite runs every registered experiment under the
// happens-before checker: the shipped protocol must be race-free in every
// configuration the suite covers. This is CI's gate for the unfaulted
// suite (`tlbcheck -race-model -quick` runs the same check from the
// command line).
func TestRaceModelQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("race-model suite is not short")
	}
	var totalAcquires, totalReads uint64
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, sum, err := RunRace(name, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			// table4 is a bare-TLB fracture study: no kernel is booted, so
			// there is no machine to check.
			if sum.Worlds == 0 && name != "table4" {
				t.Fatal("detector attached to no machines")
			}
			if !sum.OK() {
				t.Fatalf("data races in the modeled protocol:\n%s", sum.Report())
			}
			totalAcquires += sum.Stats.Acquires
			totalReads += sum.Stats.Reads
		})
	}
	// The suite as a whole must exercise the instrumentation: sync edges
	// and checked plain-variable traffic.
	if totalAcquires == 0 || totalReads == 0 {
		t.Fatalf("suite exercised no HB traffic: acquires=%d reads=%d", totalAcquires, totalReads)
	}
}

// TestRunRaceUnknownExperiment mirrors Run's registry validation.
func TestRunRaceUnknownExperiment(t *testing.T) {
	if _, _, err := RunRace("nope", Options{}); err == nil {
		t.Fatal("unknown experiment not rejected")
	}
}
