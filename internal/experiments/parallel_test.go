package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"shootdown/internal/report"
	"shootdown/internal/sched"
)

// renderTables renders tables exactly as tlbsim writes them to stdout.
func renderTables(tables []*report.Table) []byte {
	var buf bytes.Buffer
	for _, tab := range tables {
		tab.Write(&buf)
		fmt.Fprintln(&buf)
	}
	return buf.Bytes()
}

// renderSuite renders the named quick experiments at seed, in order, as
// `tlbsim -exp all -quick -seed N` does.
func renderSuite(names []string, seed uint64) []byte {
	var buf bytes.Buffer
	reg := Registry()
	for _, name := range names {
		buf.Write(renderTables(reg[name](Options{Quick: true, Seed: seed})))
	}
	return buf.Bytes()
}

// serialRenders caches unchecked one-worker renders by "name/seed", so
// the reference the determinism tests compare against is simulated once
// per test binary.
var serialRenders = map[string][]byte{}

// serialRender renders the named quick experiment at seed on one worker.
func serialRender(name string, seed uint64) []byte {
	key := fmt.Sprintf("%s/%d", name, seed)
	if r, ok := serialRenders[key]; ok {
		return r
	}
	prev := sched.SetWorkers(1)
	defer sched.SetWorkers(prev)
	serialRenders[key] = renderSuite([]string{name}, seed)
	return serialRenders[key]
}

// TestParallelOutputBitIdentical is the scheduler's acceptance contract:
// the rendered experiment suite is byte-identical at one worker and at
// eight, across several seeds. Scope comes from parallelCheckScope, which
// shrinks under `go test -race` (the full suite ×2 worker counts ×seeds
// is too slow at race-detector overhead; the reduced set still covers
// every fan-out shape: cells, nested seed averaging, probes, daemons).
func TestParallelOutputBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is slow; run without -short")
	}
	names, seeds := parallelCheckScope()
	for _, seed := range seeds {
		var ref []byte
		for _, name := range names {
			ref = append(ref, serialRender(name, seed)...)
		}
		prev := sched.SetWorkers(8)
		got := renderSuite(names, seed)
		sched.SetWorkers(prev)
		if bytes.Equal(ref, got) {
			continue
		}
		rl := bytes.Split(ref, []byte("\n"))
		gl := bytes.Split(got, []byte("\n"))
		for i := 0; i < len(rl) && i < len(gl); i++ {
			if !bytes.Equal(rl[i], gl[i]) {
				t.Fatalf("seed %d: workers=8 diverges from workers=1 at line %d:\n  ref: %s\n  got: %s",
					seed, i+1, rl[i], gl[i])
			}
		}
		t.Fatalf("seed %d: workers=8 output length differs: %d vs %d bytes", seed, len(ref), len(got))
	}
}
