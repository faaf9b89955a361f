// Command tlbfuzz stress-tests the TLB coherence invariant: it runs a
// randomized multi-CPU workload (faults, CoW breaks, madvise, mprotect,
// fdatasync, fork, daemons) under a random optimization configuration and
// verifies at the end that no actively running CPU holds a translation
// that contradicts the page tables.
//
// With -faults it additionally runs every seed under a deterministic
// fault schedule (IPI drops/delays, responder stalls, TLB evictions,
// PCID recycling, preemption storms — see internal/fault), exercising the
// shootdown retry/degradation recovery path under the same oracles.
//
// Every failure is reproducible from its seed and fault schedule:
//
//	tlbfuzz -runs 200
//	tlbfuzz -seed 12345 -v
//	tlbfuzz -runs 200 -faults heavy
//	tlbfuzz -faults drop,noretry -seed 12345 -parallel 1   # replay one schedule
//	tlbfuzz -broken coalesce -faults light -runs 200       # oracles must convict
//
// With -broken it plants a deliberately broken async-fabric variant
// (ackdrain: the drain acks before the flush lands; coalesce: in-ring
// merges adopt the newer entry's end and shrink coverage) and the run
// is expected to FAIL — the printed repro line pins the convicting
// schedule, the dynamic half of the fabproof cross-validation contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"shootdown/internal/core"
	"shootdown/internal/daemons"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sanitizer/ssa"
	"shootdown/internal/sched"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
	"shootdown/internal/workload"
)

const pg = pagetable.PageSize4K

// commonBase is the fixed address of the arena every fuzz worker maps
// and touches at identical virtual addresses (unlike the per-worker
// arenas), so invalidations cross CPUs' TLBs.
const commonBase = uint64(0x5000_0000)

func main() {
	var (
		runs     = flag.Int("runs", 50, "number of randomized runs")
		seed     = flag.Uint64("seed", 0, "run a single seed instead of -runs random ones")
		ops      = flag.Int("ops", 120, "operations per worker thread")
		verbose  = flag.Bool("v", false, "print per-run summaries")
		parallel = flag.Int("parallel", 0, "seeds fuzzed concurrently (0 = GOMAXPROCS); each seed is an isolated simulation")
		faults   = flag.String("faults", "none", "fault schedule per run: a preset (none, light, heavy, drop, broken) and/or key=p[:max] overrides")
		tlbmode  = flag.String("tlbmode", "auto", "shootdown dispatch tier: auto (seed-random), sync, or async")
		broken   = flag.String("broken", "", "plant a deliberately broken fabric variant the oracles must convict: ackdrain or coalesce (forces -tlbmode async)")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	spec, err := fault.Parse(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbfuzz: %v\n", err)
		os.Exit(2)
	}
	switch *tlbmode {
	case "auto", "sync", "async":
	default:
		fmt.Fprintf(os.Stderr, "tlbfuzz: -tlbmode must be auto, sync or async\n")
		os.Exit(2)
	}
	switch *broken {
	case "", "ackdrain", "coalesce":
	default:
		fmt.Fprintf(os.Stderr, "tlbfuzz: -broken must be ackdrain or coalesce\n")
		os.Exit(2)
	}
	if *broken != "" {
		// The broken knobs only exist on the async dispatch path.
		*tlbmode = "async"
	}

	seeds := make([]uint64, 0, *runs)
	if *seed != 0 {
		seeds = append(seeds, *seed)
	} else {
		r := sim.NewRand(0xf022)
		for i := 0; i < *runs; i++ {
			seeds = append(seeds, r.Uint64()|1)
		}
	}
	// Every seed is a self-contained simulation, so the sweep fans out
	// across the pool; results print in seed order afterwards, identical
	// to a serial sweep.
	type result struct {
		errs    []string
		summary string
	}
	results := sched.Collect(len(seeds), func(i int) result {
		errs, summary := fuzzOne(seeds[i], *ops, *verbose, spec, *tlbmode, *broken)
		return result{errs, summary}
	})
	failures := 0
	for i, res := range results {
		if *verbose {
			fmt.Print(res.summary)
		}
		if len(res.errs) > 0 {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL seed=%d (repro: %s):\n", seeds[i], reproLine(seeds[i], *ops, spec, *tlbmode, *broken))
			for _, e := range res.errs {
				fmt.Fprintf(os.Stderr, "  %s\n", e)
			}
		}
	}
	if failures > 0 {
		printSuppressionAudit()
		fmt.Fprintf(os.Stderr, "tlbfuzz: %d/%d runs violated coherence\n", failures, len(seeds))
		os.Exit(1)
	}
	fmt.Printf("tlbfuzz: %d runs, coherence held in all\n", len(seeds))
}

// printSuppressionAudit cross-references failures with the static tier:
// its analyzers may hold findings that were deliberately silenced with
// "obligation-transferred:", "lock-free-by-design:" or
// "bounded-by-design:" markers. A coherence violation whose path runs
// through one of those sites means the marker's justification is wrong —
// the analyzer saw the problem and was told to stand down. Best-effort:
// when the module source is not reachable from the working directory the
// audit is skipped (the fuzz failure itself is the headline).
func printSuppressionAudit() {
	if res, err := ssa.Check(); err == nil {
		writeSuppressionAudit(os.Stderr, res.Suppressions)
	}
}

// writeSuppressionAudit prints one audit line per suppression, under a
// header; nothing when the tier holds no suppressions.
func writeSuppressionAudit(w io.Writer, sups []ssa.Suppression) {
	if len(sups) == 0 {
		return
	}
	fmt.Fprintf(w, "note: the static tier holds %d suppressed finding(s); if a violating seed's path runs through one, its marker is wrong:\n", len(sups))
	for _, s := range sups {
		fmt.Fprintf(w, "  %s:%d: %s suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
	}
}

func randomConfig(r *sim.Rand, tlbmode string) core.Config {
	bits := r.Uint64()
	cfg := core.Config{
		ConcurrentFlush:        bits&1 != 0,
		EarlyAck:               bits&2 != 0,
		CachelineConsolidation: bits&4 != 0,
		InContextFlush:         bits&8 != 0,
		AvoidCoWFlush:          bits&16 != 0,
		UserspaceBatching:      bits&32 != 0,
	}
	// The async tier draws its bit from the same seed stream whatever the
	// flag says, so a seed names one configuration; the flag then only
	// forces the tier on top.
	cfg.AsyncShootdown = bits&64 != 0
	switch tlbmode {
	case "sync":
		cfg.AsyncShootdown = false
	case "async":
		cfg.AsyncShootdown = true
	}
	return cfg
}

// reproLine renders the one-line command that replays a failing run
// byte-identically: same seed, same ops, same fault schedule, same
// dispatch tier (and planted breakage, if any), one worker.
func reproLine(seed uint64, ops int, spec fault.Spec, tlbmode, broken string) string {
	line := fmt.Sprintf("tlbfuzz -faults %s -tlbmode %s -seed %d -ops %d -parallel 1", spec, tlbmode, seed, ops)
	if broken != "" {
		line += " -broken " + broken
	}
	return line
}

func fuzzOne(seed uint64, opsPerThread int, verbose bool, spec fault.Spec, tlbmode, broken string) (errs []string, summary string) {
	r := sim.NewRand(seed)
	cfg := randomConfig(r, tlbmode)
	switch broken {
	case "ackdrain":
		cfg.BrokenAckBeforeDrain = true
	case "coalesce":
		cfg.BrokenCoalesceShrink = true
	}
	pti := r.Uint64()&1 == 0

	world, err := workload.Boot(workload.Machine{
		Base: workload.Template{Faults: spec}, Mode: workload.Mode(pti), Core: cfg, Seed: seed,
	})
	if err != nil {
		return []string{err.Error()}, ""
	}
	defer world.Close()
	eng, k, f, pl := world.Eng, world.K, world.F, world.Fault
	// The happens-before checker validates the synchronization structure of
	// every run alongside the shadow-oracle coherence check below. The
	// flusher was built before it; re-wire its own sync objects.
	rd := race.New(eng)
	k.EnableRace(rd)
	f.EnableRace()
	// The shadow-oracle sanitizer checks every TLB hit against the page
	// tables *during* the run — far stronger than the end-state snapshot
	// check below, which only sees what survived to quiescence.
	chk := sanitizer.Attach(k, f, sanitizer.Config{})

	as := k.NewAddressSpace()
	file := k.NewFile("fuzz", 64*pg)
	cpus := []mach.CPU{0, 1, 2, 3, 28, 30}
	nworkers := 2 + int(r.Uint64n(uint64(len(cpus)-1)))

	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	ready := 0
	var children []*mm.AddressSpace
	for w := 0; w < nworkers; w++ {
		w := w
		tr := sim.NewRand(seed*2654435761 + uint64(w))
		task := &kernel.Task{Name: "fuzz", MM: as, Fn: func(ctx *kernel.Ctx) {
			base := uint64(0x3000_0000) + uint64(w)*0x200_0000
			arena, err := ctx.MM().MMapFixed(base, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				fail("mmap fixed: %v", err)
				return
			}
			// One region every worker touches at the same addresses: the
			// only surface where one CPU's invalidations cover pages
			// another CPU has cached, which the coalesce-shrink oracle
			// check needs (per-worker mappings never cross TLBs).
			if w == 0 {
				if _, err := ctx.MM().MMapFixed(commonBase, 8*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
					fail("mmap common: %v", err)
					return
				}
			}
			shared, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
			if err != nil {
				fail("mmap shared: %v", err)
				return
			}
			priv, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite, mm.FilePrivate, file, 0)
			if err != nil {
				fail("mmap priv: %v", err)
				return
			}
			ready++
			for ready < nworkers {
				ctx.UserRun(1000)
			}
			for i := 0; i < opsPerThread; i++ {
				page := tr.Uint64n(8)
				switch tr.Uint64n(13) {
				case 0, 1, 2:
					ctx.Touch(arena.Start+page*pg, mm.AccessWrite)
				case 3:
					ctx.Touch(shared.Start+page*pg, mm.AccessWrite)
				case 4:
					ctx.Touch(shared.Start+page*pg, mm.AccessRead)
				case 5:
					ctx.Touch(priv.Start+page*pg, mm.AccessRead)
					ctx.Touch(priv.Start+page*pg, mm.AccessWrite)
				case 6:
					syscalls.MadviseDontneed(ctx, arena.Start+page*pg, pg)
				case 7:
					syscalls.Fdatasync(ctx, file)
				case 8:
					syscalls.Mprotect(ctx, arena.Start, 2*pg, mm.ProtRead)
					syscalls.Mprotect(ctx, arena.Start, 2*pg, mm.ProtRead|mm.ProtWrite)
				case 9:
					if w == 0 && len(children) < 2 {
						if child, err := syscalls.Fork(ctx); err == nil {
							children = append(children, child)
						}
					}
					ctx.UserRun(2000)
				case 10:
					// Descending adjacent madvises over the common region:
					// every worker caches these same addresses, so when
					// kick delays leave the first inval queued, the pair
					// meets in a remote ring — the exact shape whose
					// broken shrink merge loses a page another CPU still
					// holds.
					off := tr.Uint64n(6)
					syscalls.MadviseDontneed(ctx, commonBase+(off+1)*pg, 2*pg)
					syscalls.MadviseDontneed(ctx, commonBase+off*pg, pg)
				case 11:
					ctx.Touch(commonBase+page*pg, mm.AccessRead)
				default:
					ctx.UserRun(1500)
				}
			}
		}}
		k.CPU(cpus[w]).Spawn(task)
	}
	// One daemon adds kernel-thread flush pressure.
	eng.Go("daemon-spawner", func(p *sim.Proc) {
		for ready < nworkers {
			p.Delay(50_000)
		}
		daemons.Kswapd(k, 8, as, file, 8, 60_000, 2)
	})
	eng.Run()

	// Coherence check over every address space involved.
	spaces := append([]*mm.AddressSpace{as}, children...)
	for _, space := range spaces {
		for _, c := range k.CPUs() {
			if c.CurrentMM() != space || c.Lazy() || c.HasPendingUserFlush() {
				continue
			}
			for _, se := range c.TLB.Snapshot() {
				if se.PCID != space.KernelPCID && se.PCID != space.UserPCID {
					continue
				}
				tr, err := space.PT.Walk(se.Entry.VA)
				if err != nil {
					fail("cpu%d caches unmapped va %#x (mm %d)", c.ID, se.Entry.VA, space.ID)
					continue
				}
				if tr.Frame != se.Entry.Frame {
					fail("cpu%d stale frame at %#x: tlb %d pt %d (mm %d)", c.ID, se.Entry.VA, se.Entry.Frame, tr.Frame, space.ID)
				}
				if se.Entry.Flags.Has(pagetable.Write) && !tr.Flags.Has(pagetable.Write) {
					fail("cpu%d write grant against RO PTE at %#x (mm %d)", c.ID, se.Entry.VA, space.ID)
				}
			}
		}
	}
	if sum := chk.Finish(); !sum.OK() {
		for _, v := range sum.Violations {
			fail("sanitizer %s (cpu%d t=%d): %s", v.Kind, v.CPU, v.At, v.Msg)
		}
	}
	rsum := rd.Finish()
	if !rsum.OK() {
		for _, rc := range rsum.Races {
			fail("race on %s (t=%d): %s", rc.Var, rc.At, rc.Msg)
		}
	}
	if verbose {
		st := f.Stats()
		cst := chk.Stats()
		// Returned, not printed: the caller emits summaries in seed order
		// so parallel sweeps read identically to serial ones.
		summary = fmt.Sprintf("seed=%d cfg=%s pti=%v workers=%d: shootdowns=%d remote(sel=%d full=%d skip=%d) checked(hits=%d windows=%d) hb(acq=%d rel=%d races=%d) errs=%d",
			seed, cfg, pti, nworkers, st.Shootdowns, st.RemoteSelective, st.RemoteFull, st.RemoteSkipped, cst.TLBHits, cst.ObligationsOpened,
			rsum.Stats.Acquires, rsum.Stats.Releases, len(rsum.Races), len(errs))
		if cfg.AsyncShootdown {
			ss := k.SMP.Stats()
			summary += fmt.Sprintf(" fabric(posts=%d coalesced=%d overflows=%d drains=%d rekicks=%d)",
				ss.AsyncPosts, ss.AsyncCoalesced, ss.AsyncOverflows, ss.AsyncDrains, ss.AsyncRekicks)
		}
		if pl != nil {
			fs := pl.Stats()
			ss := k.SMP.Stats()
			summary += fmt.Sprintf(" faults(drop=%d forced=%d delay=%d stall=%d) recovery(timeouts=%d rekicks=%d degraded=%d)",
				fs.Drops, fs.ForcedDeliveries, fs.Delays, fs.Stalls, ss.AckTimeouts, ss.Rekicks, ss.DegradedFulls)
		}
		summary += "\n"
	}
	return errs, summary
}
