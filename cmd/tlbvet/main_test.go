package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shootdown/internal/sanitizer/ssa"
)

// TestParseOnly: -only accepts registered analyzers, trimmed, and rejects
// any name Analyzers does not list.
func TestParseOnly(t *testing.T) {
	names, err := parseOnly(" lockset,,mhp ")
	if err != nil || !reflect.DeepEqual(names, []string{"lockset", "mhp"}) {
		t.Fatalf("parseOnly = %v, %v; want [lockset mhp]", names, err)
	}
	if names, err := parseOnly(""); err != nil || names != nil {
		t.Fatalf("empty -only = %v, %v; want every analyzer (nil)", names, err)
	}
	for _, bad := range []string{"stalemarker", "ipistate", "fabproof", "lockset,stalemarker", "Lockset"} {
		if _, err := parseOnly(bad); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
			t.Errorf("parseOnly(%q) error = %v, want unknown analyzer", bad, err)
		}
	}
}

// TestJSONReportKeys pins the top-level keys of the -json report, which
// CI publishes as VET_findings.json.
func TestJSONReportKeys(t *testing.T) {
	b, err := json.Marshal(report{})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"findings", "funcs_visited", "timings_ms", "witnesses", "xval"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("report keys = %v, want %v", keys, want)
	}
}

// TestTablesKeepTheirOwnWitnesses pins which witnesses the committed
// table lists: RACE_XVAL.txt only lockset's, not another analyzer's.
func TestTablesKeepTheirOwnWitnesses(t *testing.T) {
	rep := report{Witnesses: []ssa.Finding{
		{File: "a.go", Line: 1, Analyzer: "lockset", Msg: "race-tier witness"},
		{File: "b.go", Line: 2, Analyzer: "mhp", Msg: "other witness"},
	}}
	got, want := renderXVal(rep), "witness | a.go:1 | race-tier witness\n"
	if !strings.HasSuffix(got, want) || strings.Contains(got, "other witness") {
		t.Errorf("RACE_XVAL table = %q, want it to end with %q and omit the mhp witness", got, want)
	}
}

// TestCommittedProofTables runs every analyzer on the module and requires
// the committed RACE_XVAL.txt to be the table tlbvet writes now, so a
// change that moves a proof row or a witness line fails until it commits
// the regenerated table.
func TestCommittedProofTables(t *testing.T) {
	m, err := ssa.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	got := renderXVal(newReport(ssa.CheckModuleOnly(m, nil)))
	want, err := os.ReadFile(filepath.Join(m.Root, "RACE_XVAL.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("committed RACE_XVAL.txt differs from the table tlbvet writes now; regenerate it with go run ./cmd/tlbvet -xval RACE_XVAL.txt. Now:\n%s", got)
	}
}
