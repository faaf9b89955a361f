package ssa

import (
	"strings"
	"testing"
)

func TestFabproofUnboundedAppendFires(t *testing.T) {
	res := checkFixture(t, "bad_fabproof.go")
	if got := countBy(res.Findings, "fabproof"); got != 1 {
		t.Fatalf("fabproof findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "length bound") || !strings.Contains(f.Msg, "full flush") {
		t.Fatalf("finding should name the missing bound and the collapse: %v", f)
	}
}

func TestFabproofGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_fabproof.go")
	if len(res.Findings) != 0 {
		t.Fatalf("guarded fixture should be clean, got %v", res.Findings)
	}
	if len(res.Suppressions) != 1 {
		t.Fatalf("suppressions = %d, want exactly 1 (the waiver): %v", len(res.Suppressions), res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "fabproof" || !strings.Contains(s.Reason, "drains") {
		t.Fatalf("unexpected suppression: %+v", s)
	}
}

func TestStaleFabMarkerFires(t *testing.T) {
	res := checkFixture(t, "bad_fabmarker.go")
	if got := countBy(res.Findings, "stalemarker"); got != 1 {
		t.Fatalf("stalemarker findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "bounded-by-design") {
		t.Fatalf("finding should name the marker vocabulary: %v", res.Findings[0])
	}
}

// TestFabproofBrokenCoalesceWitness is the static half of the seeded
// coalesce-shrink cross-validation contract: on the clean module the
// fabproof tier must rediscover the config-planted BrokenCoalesceShrink
// coverage loss — as exactly one witness, inside the merge function,
// on the path only the broken knob enables — while producing zero
// findings. The dynamic half lives in internal/workload
// (TestBrokenCoalesceShrinkCaughtExactlyOnce).
func TestFabproofBrokenCoalesceWitness(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("module should be clean, got %v", res.Findings)
	}
	var fabWits []Finding
	for _, w := range res.Witnesses {
		if w.Analyzer == "fabproof" {
			fabWits = append(fabWits, w)
		}
	}
	if len(fabWits) != 1 {
		t.Fatalf("fabproof witnesses = %d, want exactly 1 (the seeded coalesce shrink): %v", len(fabWits), res.Witnesses)
	}
	w := fabWits[0]
	if !strings.Contains(w.File, "internal/smp/fabric.go") {
		t.Fatalf("witness should sit in the fabric's merge: %v", w)
	}
	for _, want := range []string{"brokenCoalesce", "coverage loss", "stale translation"} {
		if !strings.Contains(w.Msg, want) {
			t.Fatalf("witness message should mention %q: %v", want, w)
		}
	}
}

// TestFabproofAllProven asserts every fabric obligation is statically
// discharged on the clean tree — the rows CI publishes as FABPROOF.txt —
// with zero waivers, in pinned order.
func TestFabproofAllProven(t *testing.T) {
	res := CheckModule(sharedModule(t))
	wantKeys := []string{
		fabRingBound, fabRingOverflow, fabSeqMono, fabAckMono, fabGenMono,
		fabRetryCap, fabCoalesce, fabCallbackOnce, fabFreedFall, fabInvalWF,
	}
	if len(res.FabRows) != len(wantKeys) {
		t.Fatalf("FabRows = %d, want %d: %+v", len(res.FabRows), len(wantKeys), res.FabRows)
	}
	for i, r := range res.FabRows {
		if r.Key != wantKeys[i] {
			t.Fatalf("row %d key = %q, want %q", i, r.Key, wantKeys[i])
		}
		if r.Status != "proven" {
			t.Fatalf("row %s status = %q, want proven (detail: %s)", r.Key, r.Status, r.Detail)
		}
		if r.Subject == "" || r.Property == "" || r.Detail == "" {
			t.Fatalf("row %s is missing subject/property/detail: %+v", r.Key, r)
		}
	}
}
