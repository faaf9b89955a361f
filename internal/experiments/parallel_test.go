package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"shootdown/internal/sched"
)

// renderSuite renders the named experiments exactly as `tlbsim -exp all
// -quick -seed N` writes them to stdout, into one buffer.
func renderSuite(names []string, seed uint64) []byte {
	var buf bytes.Buffer
	opts := Options{Quick: true, Seed: seed}
	reg := Registry()
	for _, name := range names {
		for _, tab := range reg[name](opts) {
			tab.Write(&buf)
			fmt.Fprintln(&buf)
		}
	}
	return buf.Bytes()
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
	render := func(workers int, seed uint64) []byte {
		prev := sched.SetWorkers(workers)
		defer sched.SetWorkers(prev)
		return renderSuite(names, seed)
	}
	for _, seed := range seeds {
		ref := render(1, seed)
		got := render(8, seed)
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
