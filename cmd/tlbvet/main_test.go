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
	names, err := parseOnly(" lockset,,fabproof ")
	if err != nil || !reflect.DeepEqual(names, []string{"lockset", "fabproof"}) {
		t.Fatalf("parseOnly = %v, %v; want [lockset fabproof]", names, err)
	}
	if names, err := parseOnly(""); err != nil || names != nil {
		t.Fatalf("empty -only = %v, %v; want every analyzer (nil)", names, err)
	}
	for _, bad := range []string{"stalemarker", "ipistate", "lockset,stalemarker", "Lockset"} {
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
	want := []string{"fabproof", "findings", "funcs_visited", "timings_ms", "witnesses", "xval"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("report keys = %v, want %v", keys, want)
	}
}

// TestTablesKeepTheirOwnWitnesses pins which witnesses each committed
// table lists: RACE_XVAL.txt only lockset's, FABPROOF.txt only
// fabproof's.
func TestTablesKeepTheirOwnWitnesses(t *testing.T) {
	rep := report{Witnesses: []ssa.Finding{
		{File: "a.go", Line: 1, Analyzer: "lockset", Msg: "race-tier witness"},
		{File: "b.go", Line: 2, Analyzer: "fabproof", Msg: "fabric witness"},
	}}
	for _, tc := range []struct {
		name, got, want, not string
	}{
		{"RACE_XVAL", renderXVal(rep), "witness | a.go:1 | race-tier witness\n", "fabric witness"},
		{"FABPROOF", renderFabproof(rep), "witness | b.go:2 | fabric witness\n", "race-tier witness"},
	} {
		if !strings.HasSuffix(tc.got, tc.want) || strings.Contains(tc.got, tc.not) {
			t.Errorf("%s table = %q, want it to end with %q and omit %q", tc.name, tc.got, tc.want, tc.not)
		}
	}
}

// TestCommittedProofTables runs every analyzer on the module and requires
// the committed RACE_XVAL.txt and FABPROOF.txt to be the tables tlbvet
// writes now, so a change that moves a proof row or a witness line fails
// until it commits the regenerated tables.
func TestCommittedProofTables(t *testing.T) {
	m, err := ssa.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(ssa.CheckModuleOnly(m, nil))
	for _, tc := range []struct{ file, got string }{
		{"RACE_XVAL.txt", renderXVal(rep)},
		{"FABPROOF.txt", renderFabproof(rep)},
	} {
		want, err := os.ReadFile(filepath.Join(m.Root, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != string(want) {
			t.Errorf("committed %s differs from the table tlbvet writes now; regenerate it with go run ./cmd/tlbvet -xval RACE_XVAL.txt -fabproof FABPROOF.txt. Now:\n%s", tc.file, tc.got)
		}
	}
}
