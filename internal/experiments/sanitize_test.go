package experiments

import (
	"testing"
)

// TestSanitizedQuickSuite runs every registered experiment under the
// shadow-oracle checker: the seed experiment suite must be coherent — zero
// stale translations, no unacked IPIs, no lock inversions. This is CI's
// gate for the unfaulted suite (`tlbcheck -quick` runs the same check from
// the command line).
func TestSanitizedQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("sanitized suite is not short")
	}
	var totalHits, totalWindows uint64
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, sum, err := Run(name, Options{Quick: true, Seed: 1, Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			if sum == nil {
				t.Fatal("no summary despite Sanitize")
			}
			// table4 is a bare-TLB fracture study: no kernel is booted, so
			// there is no machine to check.
			if sum.Worlds == 0 && name != "table4" {
				t.Fatal("sanitizer attached to no machines")
			}
			if !sum.OK() {
				t.Fatalf("coherence violations:\n%s", sum.Report())
			}
			totalHits += sum.Stats.TLBHits
			totalWindows += sum.Stats.ObligationsOpened
		})
	}
	// The suite as a whole must exercise the oracle: validated hits and
	// opened-and-closed flush windows. (Individual micro figures flush the
	// entries they fill before re-touching, so zero hits there is normal.)
	if totalHits == 0 || totalWindows == 0 {
		t.Fatalf("suite exercised no oracle traffic: hits=%d windows=%d", totalHits, totalWindows)
	}
}

// TestSanitizeOffReturnsNilSummary: the flag gates the checker entirely.
func TestSanitizeOffReturnsNilSummary(t *testing.T) {
	tables, sum, err := Run("fig5", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum != nil {
		t.Fatal("summary returned without Sanitize")
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment not rejected")
	}
}
