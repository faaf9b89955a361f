package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunChecksBothOracles drives the command's run loop on one cheap
// experiment, on the default machine and on a -topo template: a clean
// run exits 0 and prints the sanitizer report, then the race report,
// each with its PASS line.
func TestRunChecksBothOracles(t *testing.T) {
	for _, args := range [][]string{{"-quick", "-run", "fig9"}, {"-topo", "2x8x2", "-run", "fig9", "-quick"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("tlbcheck %s: exit %d, want 0; stderr:\n%s", strings.Join(args, " "), code, stderr.String())
		}
		out := stdout.String()
		order := []string{
			"tlbcheck: 12 simulation(s) checked\n",
			"PASS: no coherence violations\n",
			"tlbcheck: 12 simulation(s) race-checked",
			"PASS: no data races\n",
		}
		at := 0
		for _, want := range order {
			i := strings.Index(out[at:], want)
			if i < 0 {
				t.Fatalf("tlbcheck %s: report lacks %q after byte %d:\n%s", strings.Join(args, " "), want, at, out)
			}
			at += i + len(want)
		}
	}
}

// TestRunRejectsBadUsage: an unknown experiment, an undefined flag and
// an invalid topology are usage errors, exit 2.
func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{{"-run", "nope"}, {"-nope"}, {"-topo", "0x0x0", "-run", "fig9", "-quick"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("tlbcheck %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}
