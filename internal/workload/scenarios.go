package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"shootdown/internal/core"
	"shootdown/internal/daemons"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/syscalls"
)

// Scenario is one deterministic-outcome workload form for the metamorphic
// fault tests: its final memory state is a function of the program alone,
// never of scheduling. The production workloads (sysbench, daemonstorm)
// deliberately contain outcome races — last-writer dirty bits under
// concurrent fdatasync, daemon-vs-app ordering — so their raw final state
// is not schedule-invariant and cannot separate "faults changed timing"
// (allowed) from "faults changed semantics" (a bug). Each scenario here
// mirrors one flush-heavy workload family with the outcome races removed:
// every task owns a disjoint VA range, and phases that must order
// (populate before reclaim) are sequenced explicitly.
type Scenario struct {
	Name string
	// Run executes the scenario to completion on a booted world (it calls
	// Eng.Run itself) and returns the address spaces whose final state
	// defines the outcome.
	Run func(w *World) []*mm.AddressSpace
}

// Scenarios returns the registry, in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "madvise", Run: runMadviseScenario},
		{Name: "cow", Run: runCoWScenario},
		{Name: "mprotect", Run: runMprotectScenario},
		{Name: "munmap", Run: runMunmapScenario},
		{Name: "daemons", Run: runDaemonsScenario},
	}
}

// scenarioWorkers is the worker fan-out; with the driver on CPU 0 the
// scenarios keep shootdown traffic crossing at least one socket of the
// default topology.
const scenarioWorkers = 3

// scenarioDriver spawns body as the driver task on CPU 0 of a fresh
// address space and runs the engine to quiescence. The driver does all
// address-space layout itself (MMap allocates from a cursor, so only a
// single thread may call it if VAs are to be schedule-independent) and is
// the only task that spawns others. It must RETURN after spawning, never
// Join: a task parked in Join leaves its CPU unable to service IRQs, so a
// shootdown targeting it never completes — returning idles the CPU, whose
// idle loop keeps acking. Eng.Run's quiescence is the join barrier.
func scenarioDriver(w *World, body func(ctx *kernel.Ctx, as *mm.AddressSpace)) *mm.AddressSpace {
	as := w.K.NewAddressSpace()
	driver := &kernel.Task{Name: "driver", MM: as, Fn: func(ctx *kernel.Ctx) {
		body(ctx, as)
	}}
	w.K.CPU(0).Spawn(driver)
	w.Eng.Run()
	return as
}

// touchRange touches [start, start+pages*pg) with the given access,
// panicking on error (scenario ranges are always mapped).
func touchRange(ctx *kernel.Ctx, start uint64, pages int, access mm.Access) {
	for i := 0; i < pages; i++ {
		if err := ctx.Touch(start+uint64(i)*pg, access); err != nil {
			panic(err)
		}
	}
}

// runMadviseScenario mirrors the micro madvise workload: each worker
// owns a disjoint arena, touches every page, madvises the first half
// away, and re-touches the first quarter. Final state per arena: first
// quarter freshly populated, second quarter absent, second half dirty.
func runMadviseScenario(w *World) []*mm.AddressSpace {
	const pages = 32
	as := scenarioDriver(w, func(ctx *kernel.Ctx, as *mm.AddressSpace) {
		arenas := make([]*mm.VMA, scenarioWorkers)
		for i := range arenas {
			v, err := syscalls.MMap(ctx, pages*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			arenas[i] = v
		}
		for i := 0; i < scenarioWorkers; i++ {
			v := arenas[i]
			t := &kernel.Task{Name: fmt.Sprintf("worker%d", i), MM: as, Fn: func(wctx *kernel.Ctx) {
				touchRange(wctx, v.Start, pages, mm.AccessWrite)
				wctx.UserRun(4000)
				if err := syscalls.MadviseDontneed(wctx, v.Start, pages/2*pg); err != nil {
					panic(err)
				}
				touchRange(wctx, v.Start, pages/4, mm.AccessWrite)
			}}
			w.K.CPU(mach.CPU(1 + i)).Spawn(t)
		}
	})
	return []*mm.AddressSpace{as}
}

// runCoWScenario mirrors the fork/CoW workload: the driver populates an
// arena, forks, and then parent and child each write every page
// concurrently. Whoever writes a page first copies it; the second writer
// takes the un-share fast path — either order ends with two private,
// fully written copies, so the outcome is order-free by construction.
func runCoWScenario(w *World) []*mm.AddressSpace {
	const pages = 24
	var child *mm.AddressSpace
	parent := scenarioDriver(w, func(ctx *kernel.Ctx, as *mm.AddressSpace) {
		v, err := syscalls.MMap(ctx, pages*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		touchRange(ctx, v.Start, pages, mm.AccessWrite)
		child, err = syscalls.Fork(ctx)
		if err != nil {
			panic(err)
		}
		childTask := &kernel.Task{Name: "child", MM: child, Fn: func(cctx *kernel.Ctx) {
			touchRange(cctx, v.Start, pages, mm.AccessWrite)
		}}
		w.K.CPU(1).Spawn(childTask)
		touchRange(ctx, v.Start, pages, mm.AccessWrite)
	})
	return []*mm.AddressSpace{parent, child}
}

// runMprotectScenario: each worker cycles its own arena through
// read-only and read-write protection with accesses in between. Final
// state: everything writable and dirty.
func runMprotectScenario(w *World) []*mm.AddressSpace {
	const (
		pages  = 16
		cycles = 3
	)
	as := scenarioDriver(w, func(ctx *kernel.Ctx, as *mm.AddressSpace) {
		arenas := make([]*mm.VMA, scenarioWorkers)
		for i := range arenas {
			v, err := syscalls.MMap(ctx, pages*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				panic(err)
			}
			arenas[i] = v
		}
		for i := 0; i < scenarioWorkers; i++ {
			v := arenas[i]
			t := &kernel.Task{Name: fmt.Sprintf("worker%d", i), MM: as, Fn: func(wctx *kernel.Ctx) {
				touchRange(wctx, v.Start, pages, mm.AccessWrite)
				for c := 0; c < cycles; c++ {
					if err := syscalls.Mprotect(wctx, v.Start, pages*pg, mm.ProtRead); err != nil {
						panic(err)
					}
					touchRange(wctx, v.Start, pages, mm.AccessRead)
					if err := syscalls.Mprotect(wctx, v.Start, pages*pg, mm.ProtRead|mm.ProtWrite); err != nil {
						panic(err)
					}
					touchRange(wctx, v.Start, pages, mm.AccessWrite)
				}
			}}
			w.K.CPU(mach.CPU(1 + i)).Spawn(t)
		}
	})
	return []*mm.AddressSpace{as}
}

// runMunmapScenario mirrors the apache map/touch/unmap churn: each worker
// gets two arenas, populates both, and unmaps the first — the page-table
// free path whose shootdowns forbid early acks. Final state: the kept
// arena dirty, the churned one gone.
func runMunmapScenario(w *World) []*mm.AddressSpace {
	const pages = 16
	as := scenarioDriver(w, func(ctx *kernel.Ctx, as *mm.AddressSpace) {
		keep := make([]*mm.VMA, scenarioWorkers)
		churn := make([]*mm.VMA, scenarioWorkers)
		for i := 0; i < scenarioWorkers; i++ {
			var err error
			if keep[i], err = syscalls.MMap(ctx, pages*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
				panic(err)
			}
			if churn[i], err = syscalls.MMap(ctx, pages*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
				panic(err)
			}
		}
		for i := 0; i < scenarioWorkers; i++ {
			kv, cv := keep[i], churn[i]
			t := &kernel.Task{Name: fmt.Sprintf("worker%d", i), MM: as, Fn: func(wctx *kernel.Ctx) {
				touchRange(wctx, kv.Start, pages, mm.AccessWrite)
				touchRange(wctx, cv.Start, pages, mm.AccessWrite)
				if err := syscalls.Munmap(wctx, cv.Start, pages*pg); err != nil {
					panic(err)
				}
				touchRange(wctx, kv.Start, pages, mm.AccessWrite)
			}}
			w.K.CPU(mach.CPU(1 + i)).Spawn(t)
		}
	})
	return []*mm.AddressSpace{as}
}

// runDaemonsScenario exercises the daemon flush sources with sequenced
// phases: the driver fully populates a clean file region and a
// huge-candidate anon region FIRST, then starts kswapd (with enough
// rounds to reclaim every clean page) and khugepaged (enough scans to
// collapse every full-aligned 2 MiB region) while a worker churns a
// disjoint arena. Because population strictly precedes the daemons and
// nothing re-touches their regions, the final state — file pages all
// reclaimed, huge regions all collapsed — is schedule-free.
func runDaemonsScenario(w *World) []*mm.AddressSpace {
	const (
		filePages = 32
		hugeSpan  = 2 * pagetable.PageSize2M
		hugeBase  = uint64(512) * pagetable.PageSize2M
	)
	file := w.K.NewFile("cold", filePages*pg)
	as := scenarioDriver(w, func(ctx *kernel.Ctx, as *mm.AddressSpace) {
		fileV, err := syscalls.MMap(ctx, filePages*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
		if err != nil {
			panic(err)
		}
		hugeV, err := as.MMapFixed(hugeBase, hugeSpan, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		arena, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		// Phase 1: populate. Read-only file touches stay clean (and thus
		// reclaimable); the huge region is fully populated small.
		touchRange(ctx, fileV.Start, filePages, mm.AccessRead)
		for off := uint64(0); off < hugeSpan; off += pg {
			if err := ctx.Touch(hugeV.Start+off, mm.AccessWrite); err != nil {
				panic(err)
			}
		}
		// Phase 2: daemons reclaim and collapse while the worker churns.
		// Both daemons get enough rounds to finish their whole region in
		// one pass plus slack; quiescence is the completion barrier.
		daemons.Khugepaged(w.K, 4, as, hugeV, 40_000, 2)
		daemons.Kswapd(w.K, 5, as, file, 8, 50_000, 5)
		worker := &kernel.Task{Name: "churn", MM: as, Fn: func(wctx *kernel.Ctx) {
			for c := 0; c < 3; c++ {
				touchRange(wctx, arena.Start, 16, mm.AccessWrite)
				if err := syscalls.MadviseDontneed(wctx, arena.Start, 16*pg); err != nil {
					panic(err)
				}
			}
		}}
		w.K.CPU(1).Spawn(worker)
	})
	return []*mm.AddressSpace{as}
}

// CanonicalState renders the memory-visible final state of spaces in a
// schedule-free canonical form: VMAs in address order, one line per
// mapped translation with present/write/huge/dirty bits, and physical
// frames renumbered by first appearance in the sweep. Frame renumbering
// is what makes the form metamorphic-comparable — faults legally perturb
// which physical frame the allocator hands out (allocation interleaves
// across CPUs shift), but never the sharing structure or the bits; an
// injective first-appearance mapping preserves exactly that. TLB contents
// and all cycle/stat counters are deliberately excluded: faults may
// change performance, never semantics.
func CanonicalState(spaces []*mm.AddressSpace) string {
	var b strings.Builder
	renum := make(map[uint64]int)
	frameID := func(f uint64) int {
		id, ok := renum[f]
		if !ok {
			id = len(renum)
			renum[f] = id
		}
		return id
	}
	for i, as := range spaces {
		fmt.Fprintf(&b, "as%d:\n", i)
		vmas := append([]*mm.VMA(nil), as.VMAs()...)
		sort.Slice(vmas, func(a, c int) bool { return vmas[a].Start < vmas[c].Start })
		for _, v := range vmas {
			fmt.Fprintf(&b, " vma [%#x,%#x) prot=%v kind=%v\n", v.Start, v.End, v.Prot, v.Kind)
			for va := v.Start; va < v.End; {
				tr, err := as.PT.Walk(va)
				if err != nil {
					fmt.Fprintf(&b, "  %#x absent\n", va)
					va += pg
					continue
				}
				fl := tr.Flags
				fmt.Fprintf(&b, "  %#x f%d p=%v w=%v h=%v d=%v n=%v\n",
					va, frameID(tr.Frame),
					fl.Has(pagetable.Present), fl.Has(pagetable.Write),
					fl.Has(pagetable.Huge), fl.Has(pagetable.Dirty),
					fl.Has(pagetable.ProtNone))
				if tr.Size == pagetable.Size2M {
					va = tr.VA + pagetable.PageSize2M
				} else {
					va += pg
				}
			}
		}
	}
	return b.String()
}

// StateDigest hashes CanonicalState (FNV-1a, hex) for compact comparison;
// on mismatch, diff the CanonicalState strings directly.
func StateDigest(spaces []*mm.AddressSpace) string {
	h := fnv.New64a()
	h.Write([]byte(CanonicalState(spaces)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// RunScenario boots base under the fully-optimized protocol, runs the
// scenario, and returns the final-state digest (the engine is shut down
// before returning). This is the metamorphic primitive: for any (mode,
// seed) on one topology, the digest must be identical across all fault
// schedules.
func RunScenario(base Template, s Scenario, mode Mode, seed uint64) string {
	w := base.boot(mode, core.All(), seed)
	defer w.Close()
	spaces := s.Run(w)
	return StateDigest(spaces)
}
