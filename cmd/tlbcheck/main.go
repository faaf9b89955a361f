// Command tlbcheck is the repository's coherence and invariant checker.
//
// In its default mode it runs the paper's experiment suite with the
// shadow-oracle TLB coherence sanitizer attached to every simulated
// machine (see internal/sanitizer): every restrictive page-table change
// must be covered by a shootdown before any CPU translates through the
// stale entry, every IPI must be acknowledged, early acks are forbidden
// on table-freeing flushes, and mm lock ordering must stay acyclic. It
// exits non-zero on any violation.
//
// With -race-model it runs the suite with the happens-before race
// detector attached instead (see internal/race): every access to shared
// simulated kernel state must be ordered by a modeled synchronization
// edge (locks, IPI send/ack, context switches), or it is reported as a
// data race in the protocol model.
//
// The static-analysis tier lives in cmd/tlbvet.
//
// Usage:
//
//	tlbcheck                     # sanitize the full experiment suite
//	tlbcheck -quick              # CI-sized runs
//	tlbcheck -run fig6,table3    # specific experiments
//	tlbcheck -race-model         # happens-before race check of the suite
//	tlbcheck -faults light       # sanitize under an injected fault schedule
//	tlbcheck -quick -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/fault"
	"shootdown/internal/prof"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

func main() {
	var (
		raceModel = flag.Bool("race-model", false, "run the happens-before race detector instead of the sanitizer")
		quick     = flag.Bool("quick", false, "shrink experiment iteration counts (CI size)")
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed      = flag.Uint64("seed", 1, "deterministic simulation seed")
		verbose   = flag.Bool("v", false, "print per-experiment progress")
		parallel  = flag.Int("parallel", 0, "experiment-cell worker count (0 = GOMAXPROCS); reports are identical at any setting")
		faults    = flag.String("faults", "none", "fault schedule for every simulated machine: a preset (none, light, heavy, drop, broken) and/or key=p[:max] overrides, e.g. 'light,drop=0.3'")
		tlbmode   = flag.String("tlbmode", "", "shootdown dispatch tier override for every cell: sync or async (default: as each experiment configures)")
		profiles  = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	// The machine flags fill the one template every cell boots.
	base := workload.Template{TLBMode: *tlbmode}
	var err error
	if base.Faults, err = fault.Parse(*faults); err == nil {
		err = workload.CheckTLBMode(base.TLBMode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		os.Exit(2)
	}

	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Base: base}
	var code int
	if *raceModel {
		code = runRaceModel(*run, opts, *verbose)
	} else {
		code = runSanitized(*run, opts, *verbose)
	}
	if err := profiles.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func runSanitized(run string, opts experiments.Options, verbose bool) int {
	names := experiments.Names()
	if !strings.EqualFold(run, "all") {
		names = strings.Split(run, ",")
	}
	summaries := make([]*sanitizer.Summary, 0, len(names))
	total := &sanitizer.Summary{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if verbose {
			fmt.Fprintf(os.Stderr, "checking %s...\n", name)
		}
		_, sum, err := experiments.RunSanitized(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
			return 2
		}
		summaries = append(summaries, sum)
		if verbose && !sum.OK() {
			fmt.Fprintf(os.Stderr, "  %s: %d violation(s)\n", name, len(sum.Violations))
		}
	}
	for _, s := range summaries {
		total.Worlds += s.Worlds
		total.Violations = append(total.Violations, s.Violations...)
		total.Dropped += s.Dropped
		total.Stats.Add(s.Stats)
	}
	fmt.Print(total.Report())
	if !total.OK() {
		return 1
	}
	return 0
}

func runRaceModel(run string, opts experiments.Options, verbose bool) int {
	names := experiments.Names()
	if !strings.EqualFold(run, "all") {
		names = strings.Split(run, ",")
	}
	total := &race.Summary{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if verbose {
			fmt.Fprintf(os.Stderr, "race-checking %s...\n", name)
		}
		_, sum, err := experiments.RunRace(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
			return 2
		}
		if verbose && !sum.OK() {
			fmt.Fprintf(os.Stderr, "  %s: %d race(s)\n", name, len(sum.Races))
		}
		total.Absorb(sum)
	}
	fmt.Print(total.Report())
	if !total.OK() {
		return 1
	}
	return 0
}
