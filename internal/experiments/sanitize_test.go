package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// reportGoldens names the experiments whose checked quick-run reports are
// pinned byte for byte: extensions boots every probe machine and async
// drives the fabric, so together they pin what the checkers' subscribers
// see (PTE changes, hits, redundant flushes, IPI requests, shootdowns and
// sync edges).
var reportGoldens = map[string]bool{"extensions": true, "async": true}

// compareReport checks report against testdata/<name>; -update rewrites it.
func compareReport(t *testing.T, name, report string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if report != string(want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, report, want)
	}
}

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
			if reportGoldens[name] {
				compareReport(t, "sanitize_"+name+".golden", sum.Report())
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

// TestExtensionsCheckEveryMachine: every machine the extensions experiment
// boots — the §6 message-IPI, §7 fracture-hint and §2.1 PCID probes
// included — goes through the boot hook, so the sanitizer and the race
// model each check all 20 and find them clean.
func TestExtensionsCheckEveryMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("checked extensions suite is not short")
	}
	const machines = 20
	o := Options{Quick: true, Seed: 1, Sanitize: true}
	_, sum, err := Run("extensions", o)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Worlds != machines || !sum.OK() {
		t.Errorf("sanitizer checked %d machines, want %d:\n%s", sum.Worlds, machines, sum.Report())
	}
	_, rsum, err := RunRace("extensions", o)
	if err != nil {
		t.Fatal(err)
	}
	if rsum.Worlds != machines || !rsum.OK() {
		t.Errorf("race model checked %d machines, want %d:\n%s", rsum.Worlds, machines, rsum.Report())
	}
}
