package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceGolden pins the timeline byte for byte for the two documented
// invocations, `-config baseline` and `-config all -ptes 3`, plus the
// async fabric's notes and the lazy path, which records no shootdown-end:
// a diff means config parsing, machine assembly, the protocol or the
// trace rendering changed what the trace shows.
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"baseline.golden", []string{"-config", "baseline"}},
		{"all_ptes3.golden", []string{"-config", "all", "-ptes", "3"}},
		{"async_ptes3.golden", []string{"-config", "async", "-ptes", "3"}},
		{"lazy_ptes3.golden", []string{"-config", "lazy", "-ptes", "3"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("shootdown-trace %s:\ngot:\n%s\nwant:\n%s", strings.Join(tc.args, " "), out.Bytes(), want)
			}
		})
	}
}

// TestTraceAcceptsStringSpelling: every name Config.String prints is a
// valid -config, including the tiers the old private parser rejected.
func TestTraceAcceptsStringSpelling(t *testing.T) {
	for _, cfg := range []string{"concurrent+earlyack", "async", "hwmsg", "concurrent,earlyack,cacheline"} {
		var out bytes.Buffer
		if err := run([]string{"-config", cfg}, &out); err != nil {
			t.Fatalf("-config %s: %v", cfg, err)
		}
		if !strings.Contains(out.String(), "shootdown-end") {
			t.Fatalf("-config %s: no shootdown in the trace:\n%s", cfg, out.String())
		}
	}
}

// TestTraceRejectsUnknownConfig: an unknown optimization is an error that
// names it and lists the valid names, and nothing is traced.
func TestTraceRejectsUnknownConfig(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-config", "concurrent,bogus"}, &out)
	const want = `core: unknown optimization "bogus" (have baseline, all, concurrent, earlyack, cacheline, incontext, cow, batching, serialized, lazy, hwmsg, async, BROKEN-earlyack, BROKEN-ackdrain, BROKEN-coalesce)`
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %s", err, want)
	}
	if out.Len() != 0 {
		t.Fatalf("wrote output despite the error:\n%s", out.String())
	}
}
