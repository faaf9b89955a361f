// Command tlbcheck is the repository's coherence and invariant checker.
//
// It runs the paper's experiment suite with both dynamic oracles attached
// to every simulated machine, in one run:
//
//   - the shadow-oracle TLB coherence sanitizer (see internal/sanitizer):
//     every restrictive page-table change must be covered by a shootdown
//     before any CPU translates through the stale entry, every IPI must be
//     acknowledged, early acks are forbidden on table-freeing flushes, and
//     mm lock ordering must stay acyclic;
//   - the happens-before race model (see internal/race): every access to
//     shared simulated kernel state must be ordered by a modeled
//     synchronization edge (locks, IPI send/ack, context switches), or it
//     is reported as a data race in the protocol model.
//
// It prints the sanitizer report, then the race report, and exits 1 if
// either finds a violation (2 on bad usage). -faults, -topo and -tlbmode
// describe the machine every cell boots, as they do for tlbsim.
//
// The static-analysis tier lives in cmd/tlbvet.
//
// Usage:
//
//	tlbcheck                     # check the full experiment suite
//	tlbcheck -quick              # CI-sized runs
//	tlbcheck -run fig6,table3    # specific experiments
//	tlbcheck -faults light       # check under an injected fault schedule
//	tlbcheck -quick -topo 2x8x2 -tlbmode async   # check another machine
//	tlbcheck -quick -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/prof"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, checks the selected
// experiments and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "shrink experiment iteration counts (CI size)")
		ids      = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed     = fs.Uint64("seed", 1, "deterministic simulation seed")
		verbose  = fs.Bool("v", false, "print per-experiment progress")
		parallel = fs.Int("parallel", 0, "experiment-cell worker count (0 = GOMAXPROCS); reports are identical at any setting")
		template = workload.TemplateFlags(fs)
		profiles = prof.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	prev := sched.SetWorkers(*parallel)
	defer sched.SetWorkers(prev)

	// The machine flags fill the one template every cell boots.
	base, err := template()
	if err == nil {
		err = profiles.Start()
	}
	if err != nil {
		fmt.Fprintf(stderr, "tlbcheck: %v\n", err)
		return 2
	}
	code := check(*ids, experiments.Options{Quick: *quick, Seed: *seed, Base: base}, *verbose, stdout, stderr)
	if err := profiles.Stop(); err != nil {
		fmt.Fprintf(stderr, "tlbcheck: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	return code
}

// check runs the named experiments (or all) with both oracles attached
// and prints the merged sanitizer report, then the merged race report.
func check(ids string, opts experiments.Options, verbose bool, stdout, stderr io.Writer) int {
	names := experiments.Names()
	if !strings.EqualFold(ids, "all") {
		names = strings.Split(ids, ",")
	}
	san, rc := &sanitizer.Summary{}, &race.Summary{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if verbose {
			fmt.Fprintf(stderr, "checking %s...\n", name)
		}
		_, s, r, err := experiments.RunChecked(name, opts)
		if err != nil {
			fmt.Fprintf(stderr, "tlbcheck: %v\n", err)
			return 2
		}
		if verbose && !(s.OK() && r.OK()) {
			fmt.Fprintf(stderr, "  %s: %d violation(s), %d race(s)\n", name, len(s.Violations), len(r.Races))
		}
		san.Absorb(s)
		rc.Absorb(r)
	}
	fmt.Fprint(stdout, san.Report())
	fmt.Fprint(stdout, rc.Report())
	if !san.OK() || !rc.OK() {
		return 1
	}
	return 0
}
