package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// reportGoldens names the experiments whose checked quick-run reports are
// pinned byte for byte: extensions boots every probe machine and async
// drives the fabric, so together they pin what the oracles see (PTE
// changes, hits, redundant flushes, IPI requests, shootdowns and sync
// edges).
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

// TestCheckedQuickSuite runs every registered experiment once with both
// oracles attached: the seed suite must be coherent (no stale
// translations, no unacked IPIs, no lock inversions) and race-free in
// every configuration it covers. This is CI's gate for the unfaulted
// suite (`tlbcheck -quick` runs the same check from the command line).
// Each oracle's verdict is a subtest of its own, <experiment>/sanitizer
// and <experiment>/race, so a failure names the oracle that caught it.
// Within parallelCheckScope it also holds RunChecked to its word: the
// checked tables render byte-identical to the unchecked serial run.
func TestCheckedQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("checked suite is not short")
	}
	names, _ := parallelCheckScope()
	inScope := map[string]bool{}
	for _, name := range names {
		inScope[name] = true
	}
	var totalHits, totalWindows, totalAcquires, totalReads uint64
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, san, rc, err := RunChecked(name, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			if inScope[name] && !bytes.Equal(renderTables(tables), serialRender(name, 1)) {
				t.Errorf("checked tables differ from the unchecked serial run")
			}
			// table4 is a bare-TLB fracture study: no kernel is booted, so
			// there is no machine to check.
			booted := name != "table4"
			t.Run("sanitizer", func(t *testing.T) {
				if san.Worlds == 0 && booted {
					t.Fatal("sanitizer attached to no machines")
				}
				if !san.OK() {
					t.Fatalf("coherence violations:\n%s", san.Report())
				}
				if reportGoldens[name] {
					compareReport(t, "sanitize_"+name+".golden", san.Report())
				}
			})
			t.Run("race", func(t *testing.T) {
				if rc.Worlds == 0 && booted {
					t.Fatal("detector attached to no machines")
				}
				if !rc.OK() {
					t.Fatalf("data races in the modeled protocol:\n%s", rc.Report())
				}
				if reportGoldens[name] {
					compareReport(t, "race_"+name+".golden", rc.Report())
				}
			})
			totalHits += san.Stats.TLBHits
			totalWindows += san.Stats.ObligationsOpened
			totalAcquires += rc.Stats.Acquires
			totalReads += rc.Stats.Reads
		})
	}
	// The suite as a whole must exercise both oracles: validated hits and
	// opened-and-closed flush windows, sync edges and checked
	// plain-variable traffic. (Individual micro figures flush the entries
	// they fill before re-touching, so zero hits there is normal.)
	if totalHits == 0 || totalWindows == 0 || totalAcquires == 0 || totalReads == 0 {
		t.Fatalf("suite exercised no oracle traffic: hits=%d windows=%d acquires=%d reads=%d",
			totalHits, totalWindows, totalAcquires, totalReads)
	}
}

// TestRunUnknownExperiment: RunChecked validates the name against the
// registry before it boots anything.
func TestRunUnknownExperiment(t *testing.T) {
	if _, _, _, err := RunChecked("nope", Options{}); err == nil {
		t.Fatal("unknown experiment not rejected")
	}
}

// TestExtensionsCheckEveryMachine: every machine the extensions experiment
// boots — the §6 message-IPI, §7 fracture-hint and §2.1 PCID probes
// included — goes through the boot hook, so both oracles check all 20
// and find them clean.
func TestExtensionsCheckEveryMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("checked extensions suite is not short")
	}
	const machines = 20
	_, san, rc, err := RunChecked("extensions", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if san.Worlds != machines || !san.OK() {
		t.Errorf("sanitizer checked %d machines, want %d:\n%s", san.Worlds, machines, san.Report())
	}
	if rc.Worlds != machines || !rc.OK() {
		t.Errorf("race model checked %d machines, want %d:\n%s", rc.Worlds, machines, rc.Report())
	}
}

// TestSanitizerLeavesNoRaceTrace: the sanitizer reads simulated state as
// a host-side observer, never as a simulated CPU, so attaching it next to
// the race model changes nothing the race model records. The lazy probe
// reaches each place the sanitizer reads instrumented state: it seeds a
// shadow from a new address space's page table, consults the lazy window
// on a stale hit, and diffs the shadow against the table at Finish.
func TestSanitizerLeavesNoRaceTrace(t *testing.T) {
	run := func(attach func(*workload.World) (*sanitizer.Checker, *race.Detector)) (race.Stats, sanitizer.Stats) {
		var c *sanitizer.Checker
		var d *race.Detector
		restore := workload.SetBootHook(func(w *workload.World) { c, d = attach(w) })
		defer restore()
		workload.RunLazyProbe(workload.Template{}, workload.Safe, core.Config{LazyRemote: true}, 1)
		// The sanitizer finishes first, so a read in its end-of-run
		// checks would still show in the detector's counts.
		var cst sanitizer.Stats
		if c != nil {
			cst = c.Finish().Stats
		}
		return d.Finish().Stats, cst
	}
	alone, _ := run(func(w *workload.World) (*sanitizer.Checker, *race.Detector) {
		d := race.New(w.Eng)
		w.K.EnableRace(d)
		w.F.EnableRace()
		return nil, d
	})
	both, cst := run(AttachOracles)
	if cst.StaleLegalLazy == 0 {
		t.Fatalf("the probe never reached the sanitizer's lazy-window check: %+v", cst)
	}
	if alone != both {
		t.Errorf("the sanitizer left a trace in the race model:\n  race model alone: %+v\n  both attached:    %+v", alone, both)
	}
}
