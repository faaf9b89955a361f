package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestTableGoldens pins every quick experiment's seed-1 tables byte for
// byte: testdata/tables/<name>.golden holds what `tlbsim -exp <name>
// -quick` prints, and each is compared with the serial render the
// determinism tests already build, so the check adds no simulation. An
// engine or kernel rewrite that claims unchanged tables is held to it
// here. The faults and async goldens also pin the ack-recovery ladder's
// counts on both tiers (sync ack timeouts, rekicks, degraded-full
// escalations and the longest stall; the watchdog's rekicks and
// degrades): a ladder that degrades one timeout late moves them without
// breaking any coherence check. Under -race the test covers the race
// scope of parallelCheckScope plus those two. -update rewrites the files.
func TestTableGoldens(t *testing.T) {
	names, _ := parallelCheckScope()
	scope := map[string]bool{"faults": true, "async": true}
	for _, name := range names {
		scope[name] = true
	}
	registered := map[string]bool{}
	for _, name := range Names() {
		registered[name] = true
		if !scope[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			compareReport(t, filepath.Join("tables", name+".golden"), string(serialRender(name, 1)))
		})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "tables", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".golden"); !registered[name] {
			t.Errorf("%s pins no registered experiment", f)
		}
	}
}
