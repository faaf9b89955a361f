// Command tlbsim regenerates the tables and figures of "Don't shoot down
// TLB shootdowns!" (EuroSys '20) on the simulated machine.
//
// Usage:
//
//	tlbsim -list
//	tlbsim -exp fig6
//	tlbsim -exp all -quick
//	tlbsim -exp table4 -csv
//	tlbsim -exp faults -quick        # fault-injection sweep
//	tlbsim -exp fig6 -faults light   # any experiment under a fault schedule
//	tlbsim -exp fig10 -quick -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/prof"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig5..fig11, table3, table4, ablation, or 'all')")
		quick    = flag.Bool("quick", false, "shrink iteration counts and sweeps for a fast run")
		seed     = flag.Uint64("seed", 1, "deterministic simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list available experiments")
		parallel = flag.Int("parallel", 0, "experiment-cell worker count (0 = GOMAXPROCS); output is identical at any setting")
		template = workload.TemplateFlags(flag.CommandLine)
		profiles = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	// The three machine flags fill the one template every cell boots.
	base, err := template()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbsim: %v\n", err)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Printf("  %s\n", n)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	names := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		names = experiments.Names()
	}
	reg := experiments.Registry()
	for _, name := range names {
		if _, ok := reg[name]; !ok {
			fmt.Fprintf(os.Stderr, "tlbsim: unknown experiment %q; try -list\n", name)
			os.Exit(1)
		}
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "tlbsim: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Base: base}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		for _, tab := range reg[name](opts) {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				tab.Write(os.Stdout)
			}
			fmt.Println()
		}
	}
	if err := profiles.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "tlbsim: %v\n", err)
		os.Exit(1)
	}
}
