package main

import (
	"bytes"
	"strings"
	"testing"

	"shootdown/internal/sanitizer/ssa"
)

// TestSuppressionAuditListsMarkers pins the failure-time audit to the
// static tier's real suppressions: the flush-obligation fixture carries
// exactly one "obligation-transferred:" marker, so the audit must print
// exactly one line for it.
func TestSuppressionAuditListsMarkers(t *testing.T) {
	m, err := ssa.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ssa.CheckFixture(m, "../../internal/sanitizer/ssa/testdata/good_flushobligation.go")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	writeSuppressionAudit(&b, res.Suppressions)
	var lines []string
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(l, "  ") {
			lines = append(lines, l)
		}
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "good_flushobligation.go") || !strings.Contains(lines[0], "flushobligation suppressed: the batch driver full-flushes") {
		t.Fatalf("audit lines = %q, want exactly one for the fixture's marker", lines)
	}
}
