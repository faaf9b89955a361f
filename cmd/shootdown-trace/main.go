// Command shootdown-trace prints an annotated timeline of a single TLB
// shootdown under a chosen protocol configuration, showing how the paper's
// optimizations reorder the protocol (compare -config=baseline with
// -config=all).
//
// Usage:
//
//	shootdown-trace                         # baseline, cross socket
//	shootdown-trace -config all -ptes 10
//	shootdown-trace -config concurrent,earlyack -placement same-socket
//	shootdown-trace -config concurrent+earlyack+async
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/syscalls"
	"shootdown/internal/workload"
)

func parsePlacement(s string) (mach.Placement, error) {
	for _, p := range mach.Placements() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown placement %q (same-core, same-socket, cross-socket)", s)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "shootdown-trace:", err)
		os.Exit(1)
	}
}

// run parses args, simulates one shootdown and writes its timeline to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("shootdown-trace", flag.ContinueOnError)
	var (
		configStr = fs.String("config", "baseline", "optimizations joined by '+' or ',' (concurrent, earlyack, cacheline, incontext, cow, batching, serialized, lazy, hwmsg, async), or 'baseline'/'all'")
		placement = fs.String("placement", "cross-socket", "responder placement: same-core, same-socket, cross-socket")
		ptes      = fs.Int("ptes", 1, "PTEs flushed by the shootdown")
		unsafe    = fs.Bool("unsafe", false, "disable PTI (the paper's 'unsafe' mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := core.ParseConfig(*configStr)
	if err != nil {
		return err
	}
	pl, err := parsePlacement(*placement)
	if err != nil {
		return err
	}

	w, err := workload.Boot(workload.Machine{Mode: workload.Mode(!*unsafe), Core: cfg, Seed: 1})
	if err != nil {
		return err
	}
	defer w.Close()
	k := w.K
	rec := k.EnableTrace()

	as := k.NewAddressSpace()
	respCPU := k.Topo.ResponderFor(0, pl)
	stop := false
	k.CPU(respCPU).Spawn(&kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(2000)
		}
	}})
	const pg = pagetable.PageSize4K
	k.CPU(0).Spawn(&kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(10_000)
		v, err := syscalls.MMap(ctx, uint64(*ptes)*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < *ptes; i++ {
			if err := ctx.Touch(v.Start+uint64(i)*pg, mm.AccessWrite); err != nil {
				panic(err)
			}
		}
		rec.Reset() // trace only the shootdown itself
		start := ctx.P.Now()
		if err := syscalls.MadviseDontneed(ctx, v.Start, uint64(*ptes)*pg); err != nil {
			panic(err)
		}
		fmt.Fprintf(stdout, "madvise(DONTNEED, %d pages) took %d cycles (config: %s, %s, PTI=%v)\n\n",
			*ptes, ctx.P.Now()-start, cfg, pl, k.Cfg.PTI)
		stop = true
	}})
	w.Eng.Run()
	rec.Write(stdout)
	return nil
}
