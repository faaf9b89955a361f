package main

import (
	"fmt"
	"strings"
	"testing"

	"shootdown/internal/fault"
)

// TestReproLineCarriesFaultSchedule pins the shape of the one-line repro
// printed on failure: it must name the fault schedule, the seed, the ops
// count, and force -parallel 1, so pasting it replays the failing run
// byte-identically — including every injected fault.
func TestReproLineCarriesFaultSchedule(t *testing.T) {
	spec, err := fault.Parse("drop,noretry")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	line := reproLine(12345, 120, spec, "async", fault.MutantCoalesceShrink)
	for _, want := range []string{
		"tlbfuzz ",
		"-faults " + spec.String(),
		"-tlbmode async",
		"-seed 12345",
		"-ops 120",
		"-parallel 1",
		"-broken coalesce",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("repro line %q missing %q", line, want)
		}
	}
	if got := reproLine(7, 10, fault.Spec{}, "auto", fault.NoMutant); !strings.Contains(got, "-faults none") || !strings.Contains(got, "-tlbmode auto") || strings.Contains(got, "-broken") {
		t.Errorf("fault-free repro line %q should spell out '-faults none' and '-tlbmode auto' and omit -broken", got)
	}
}

// TestFuzzOneDeterministicUnderFaults replays the same (seed, ops, spec)
// triple and demands identical output — errors and verbose summary alike.
// This is the property the repro line relies on: a fault schedule is part
// of the seed, not a source of nondeterminism.
func TestFuzzOneDeterministicUnderFaults(t *testing.T) {
	spec, ok := fault.Preset("heavy")
	if !ok {
		t.Fatal("heavy preset missing")
	}
	for _, seed := range []uint64{3, 101} {
		errs1, sum1 := fuzzOne(seed, 40, true, spec, "auto", fault.NoMutant)
		errs2, sum2 := fuzzOne(seed, 40, true, spec, "auto", fault.NoMutant)
		if fmt.Sprint(errs1) != fmt.Sprint(errs2) {
			t.Errorf("seed %d: errors differ between identical runs:\n  %v\n  %v", seed, errs1, errs2)
		}
		if sum1 != sum2 {
			t.Errorf("seed %d: summaries differ between identical runs:\n  %s  %s", seed, sum1, sum2)
		}
	}
}

// TestFuzzOneCoherentUnderDropSchedule runs the randomized workload under
// a schedule that drops every eligible kick: the retry/degrade recovery
// path must keep the machine coherent (no sanitizer, race, or end-state
// findings), and the verbose summary must show the recovery actually ran.
func TestFuzzOneCoherentUnderDropSchedule(t *testing.T) {
	spec, ok := fault.Preset("drop")
	if !ok {
		t.Fatal("drop preset missing")
	}
	errs, sum := fuzzOne(11, 40, true, spec, "auto", fault.NoMutant)
	if len(errs) != 0 {
		t.Fatalf("coherence violated under drop schedule:\n  %s", strings.Join(errs, "\n  "))
	}
	if !strings.Contains(sum, "faults(") || !strings.Contains(sum, "recovery(") {
		t.Errorf("verbose summary lacks fault/recovery counters: %s", sum)
	}
}

// TestFuzzOneOverlappingFlushWindows pins a fuzz schedule that once drew a
// sanitizer false positive: IPI and ack delays stretch a CoW fixup's
// shootdown long enough for a concurrent fdatasync writeback to
// write-protect the just-remapped page *inside* the CoW's flush window.
// The write-protect's covering flush is a later run of the same writeback,
// so the CoW shootdown's completion must not close the merged window — the
// initiator's stale write hit before that later flush is legal staleness,
// not a violation. (Found by `tlbfuzz -runs 20 -faults heavy`; the seed
// and spec below are the bisected minimal repro. Pinned to -tlbmode sync:
// the repro predates the async tier and sync reproduces its exact
// configuration.)
func TestFuzzOneOverlappingFlushWindows(t *testing.T) {
	spec, err := fault.Parse("delay=0.5:8000,ackdelay=0.2:6000")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	errs, _ := fuzzOne(8717488660339093609, 120, false, spec, "sync", fault.NoMutant)
	if len(errs) != 0 {
		t.Fatalf("overlapping writeback/CoW windows misreported:\n  %s", strings.Join(errs, "\n  "))
	}
}

// TestFuzzOneBrokenCoalesceRepro pins the bisected one-line repro for
// the MutantCoalesceShrink cross-validation contract (EXPERIMENTS.md):
// under this schedule the planted shrink merge loses in-ring coverage of
// a commonly-mapped page and the shadow oracle convicts it as exactly
// one stale-translation — while the sound merge on the identical
// schedule stays coherent. smp's TestMergeInval convicts the same
// merge without a machine, on every endpoint ordering.
func TestFuzzOneBrokenCoalesceRepro(t *testing.T) {
	spec, err := fault.Parse("delay=1:12000")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const seed = 13811972702172687379
	errs, _ := fuzzOne(seed, 240, false, spec, "async", fault.MutantCoalesceShrink)
	if len(errs) != 1 {
		t.Fatalf("broken coalesce errors = %d, want exactly 1:\n  %s", len(errs), strings.Join(errs, "\n  "))
	}
	if !strings.Contains(errs[0], "stale-translation") {
		t.Fatalf("conviction should be a stale-translation: %s", errs[0])
	}
	if errs, _ := fuzzOne(seed, 240, false, spec, "async", fault.NoMutant); len(errs) != 0 {
		t.Fatalf("sound merge on the same schedule convicted:\n  %s", strings.Join(errs, "\n  "))
	}
}

// TestFuzzOneBrokenAckDrainRepro pins one seed on which the fuzzer
// convicts MutantAckBeforeDrain: a responder acks its fabric batch before
// the deferred flush lands, so a CPU still hits a page another CPU
// unmapped, and the sanitizer reports the stale translation. The sound
// fabric on the same seed stays coherent.
func TestFuzzOneBrokenAckDrainRepro(t *testing.T) {
	const seed = 173646068889557805
	errs, _ := fuzzOne(seed, 120, false, fault.Spec{}, "async", fault.MutantAckBeforeDrain)
	if all := strings.Join(errs, "\n  "); !strings.Contains(all, "sanitizer stale-translation") {
		t.Errorf("broken ack-before-drain not convicted as a stale translation:\n  %s", all)
	}
	if errs, _ := fuzzOne(seed, 120, false, fault.Spec{}, "async", fault.NoMutant); len(errs) != 0 {
		t.Fatalf("sound fabric on the same seed convicted:\n  %s", strings.Join(errs, "\n  "))
	}
}

// TestFuzzOneBrokenEarlyAckRepro pins one seed on which both oracles
// convict MutantEarlyAck: a worker's closing munmap frees its arena's
// page-table page, the planted variant acks those flush requests early
// anyway, and the sanitizer reports early-ack-freed-tables while the race
// model reports the §3.2 race on the freed tables. The sound protocol on
// the same seed stays coherent.
func TestFuzzOneBrokenEarlyAckRepro(t *testing.T) {
	const seed = 7854676376689133885
	errs, _ := fuzzOne(seed, 120, false, fault.Spec{}, "auto", fault.MutantEarlyAck)
	all := strings.Join(errs, "\n  ")
	for _, want := range []string{"sanitizer early-ack-freed-tables", "race on mm1.pt-nodes"} {
		if !strings.Contains(all, want) {
			t.Errorf("broken early ack not convicted with %q:\n  %s", want, all)
		}
	}
	if errs, _ := fuzzOne(seed, 120, false, fault.Spec{}, "auto", fault.NoMutant); len(errs) != 0 {
		t.Fatalf("sound protocol on the same seed convicted:\n  %s", strings.Join(errs, "\n  "))
	}
}
