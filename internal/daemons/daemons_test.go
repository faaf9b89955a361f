package daemons_test

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/daemons"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

const (
	pg   = pagetable.PageSize4K
	huge = pagetable.PageSize2M
)

func newWorld(t *testing.T, cfg core.Config) (*sim.Engine, *kernel.Kernel, *core.Flusher) {
	t.Helper()
	eng := sim.NewEngine(5)
	kcfg := kernel.DefaultConfig()
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.SetFlusher(f)
	k.Start()
	return eng, k, f
}

func TestKhugepagedCollapsesUnderLoad(t *testing.T) {
	eng, k, f := newWorld(t, core.Config{EarlyAck: true, ConcurrentFlush: true})
	as := k.NewAddressSpace()
	var v *mm.VMA
	appDone := false

	app := &kernel.Task{Name: "app", MM: as, Fn: func(ctx *kernel.Ctx) {
		vma, err := ctx.MM().MMapFixed(16*huge, huge, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// Populate all 512 small pages, then keep re-reading them while
		// khugepaged collapses behind our back. The daemon starts only
		// once the region is fully populated (v published below).
		for off := uint64(0); off < huge; off += pg {
			if err := ctx.Touch(vma.Start+off, mm.AccessWrite); err != nil {
				t.Error(err)
			}
		}
		v = vma
		for round := 0; round < 40; round++ {
			for off := uint64(0); off < huge; off += 16 * pg {
				if err := ctx.Touch(vma.Start+off, mm.AccessRead); err != nil {
					t.Error(err)
				}
			}
			ctx.UserRun(5000)
		}
		appDone = true
	}}
	k.CPU(0).Spawn(app)

	eng.Go("spawn-daemon", func(p *sim.Proc) {
		for v == nil {
			p.Delay(10_000)
		}
		d := daemons.Khugepaged(k, 2, as, v, 50_000, 3)
		_ = d
	})
	eng.Run()
	if !appDone {
		t.Fatal("app did not finish")
	}
	// The region collapsed to a huge page.
	tr, err := as.PT.Walk(v.Start)
	if err != nil || tr.Size != pagetable.Size2M {
		t.Fatalf("region not collapsed: %+v, %v", tr, err)
	}
	// Collapse frees page tables: early acks must have been suppressed
	// for those shootdowns.
	if f.Stats().EarlyAckSuppressed == 0 {
		t.Fatalf("collapse shootdowns used early acks: %+v", f.Stats())
	}
	// The app's TLB no longer holds any stale 4K entry of the region.
	for _, se := range k.CPU(0).TLB.Snapshot() {
		if se.Entry.VA >= v.Start && se.Entry.VA < v.Start+huge && se.Entry.Size == pagetable.Size4K {
			if se.PCID == as.KernelPCID || se.PCID == as.UserPCID {
				t.Fatalf("stale 4K entry at %#x after collapse", se.Entry.VA)
			}
		}
	}
}

func TestKsmdDedupsAndCoWRestoresPrivacy(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	as := k.NewAddressSpace()
	var v *mm.VMA
	pairsSent := 0

	app := &kernel.Task{Name: "app", MM: as, Fn: func(ctx *kernel.Ctx) {
		vma, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			ctx.Touch(vma.Start+i*pg, mm.AccessWrite)
		}
		v = vma
		// Wait for ksmd to merge, then write: CoW must restore privacy.
		for pairsSent < 2 {
			ctx.UserRun(10_000)
		}
		ctx.UserRun(200_000)
		if err := ctx.Touch(vma.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		p0, _, _ := as.PT.Lookup(vma.Start)
		p1, _, _ := as.PT.Lookup(vma.Start + pg)
		if p0.Frame == p1.Frame {
			t.Error("write did not break KSM sharing")
		}
	}}
	k.CPU(0).Spawn(app)

	eng.Go("spawn-ksmd", func(p *sim.Proc) {
		for v == nil {
			p.Delay(10_000)
		}
		d := daemons.Ksmd(k, 2, as, func() (uint64, uint64, bool) {
			// Nominate (0,1) then (2,3) as duplicate pairs.
			if pairsSent >= 2 {
				return 0, 0, false
			}
			i := uint64(pairsSent * 2)
			pairsSent++
			return v.Start + i*pg, v.Start + (i+1)*pg, true
		}, 30_000, 1)
		_ = d
	})
	eng.Run()
	p2, _, _ := as.PT.Lookup(v.Start + 2*pg)
	p3, _, _ := as.PT.Lookup(v.Start + 3*pg)
	if p2.Frame != p3.Frame {
		t.Fatal("second pair not merged")
	}
}

func TestKswapdReclaimAndRefault(t *testing.T) {
	eng, k, _ := newWorld(t, core.AllGeneral())
	as := k.NewAddressSpace()
	file := k.NewFile("cache", 32*pg)
	var v *mm.VMA
	refaults := 0

	app := &kernel.Task{Name: "app", MM: as, Fn: func(ctx *kernel.Ctx) {
		vma, err := syscalls.MMap(ctx, 32*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 32; i++ {
			ctx.Touch(vma.Start+i*pg, mm.AccessRead)
		}
		v = vma
		// Keep reading while kswapd evicts; count refaults via PT state.
		for round := 0; round < 30; round++ {
			ctx.UserRun(20_000)
			for i := uint64(0); i < 32; i += 4 {
				va := vma.Start + i*pg
				if _, _, err := as.PT.Lookup(va); err != nil {
					refaults++
				}
				if err := ctx.Touch(va, mm.AccessRead); err != nil {
					t.Error(err)
				}
			}
		}
	}}
	k.CPU(0).Spawn(app)
	eng.Go("spawn-kswapd", func(p *sim.Proc) {
		for v == nil {
			p.Delay(10_000)
		}
		daemons.Kswapd(k, 2, as, file, 8, 60_000, 5)
	})
	eng.Run()
	if refaults == 0 {
		t.Fatal("reclaim never evicted a page the app then refaulted")
	}
}

func TestNumaBalancerHintsAndMigrates(t *testing.T) {
	eng, k, _ := newWorld(t, core.AllGeneral())
	as := k.NewAddressSpace()
	var v *mm.VMA
	var d *daemons.Daemon
	app := &kernel.Task{Name: "app", MM: as, Fn: func(ctx *kernel.Ctx) {
		vma, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 16; i++ {
			ctx.Touch(vma.Start+i*pg, mm.AccessWrite)
		}
		v = vma
		for round := 0; round < 60; round++ {
			ctx.UserRun(10_000)
			for i := uint64(0); i < 16; i += 2 {
				if err := ctx.Touch(vma.Start+i*pg, mm.AccessWrite); err != nil {
					t.Error(err)
				}
			}
		}
	}}
	k.CPU(0).Spawn(app)
	eng.Go("spawn-balancer", func(p *sim.Proc) {
		for v == nil {
			p.Delay(10_000)
		}
		d = daemons.NumaBalancer(k, 2, as, v, 4, 40_000, 6)
	})
	eng.Run()
	st := d.Stats()
	if st.Hints == 0 || st.Migrations == 0 {
		t.Fatalf("balancer stats = %+v", st)
	}
	if st.FlushesIssued == 0 {
		t.Fatal("no flushes issued")
	}
}

// TestDaemonStormCoherence runs all four daemons against a multithreaded
// app and checks the machine-wide coherence invariant at the end.
func TestDaemonStormCoherence(t *testing.T) {
	eng, k, f := newWorld(t, core.AllGeneral())
	as := k.NewAddressSpace()
	file := k.NewFile("data", 64*pg)
	var anonV, hugeV, fileV *mm.VMA
	ready := false

	setup := &kernel.Task{Name: "setup", MM: as, Fn: func(ctx *kernel.Ctx) {
		var err error
		if anonV, err = syscalls.MMap(ctx, 32*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
			t.Error(err)
		}
		if hugeV, err = ctx.MM().MMapFixed(64*huge, huge, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
			t.Error(err)
		}
		if fileV, err = syscalls.MMap(ctx, 64*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0); err != nil {
			t.Error(err)
		}
		for i := uint64(0); i < 32; i++ {
			ctx.Touch(anonV.Start+i*pg, mm.AccessWrite)
		}
		for off := uint64(0); off < huge; off += pg {
			ctx.Touch(hugeV.Start+off, mm.AccessWrite)
		}
		for i := uint64(0); i < 64; i++ {
			ctx.Touch(fileV.Start+i*pg, mm.AccessRead)
		}
		ready = true
		// Stay busy as an application thread.
		for round := 0; round < 50; round++ {
			ctx.UserRun(10_000)
			ctx.Touch(anonV.Start+uint64(round%32)*pg, mm.AccessWrite)
			ctx.Touch(fileV.Start+uint64(round%64)*pg, mm.AccessRead)
		}
	}}
	k.CPU(0).Spawn(setup)
	worker := &kernel.Task{Name: "worker", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !ready {
			ctx.UserRun(5000)
		}
		for round := 0; round < 50; round++ {
			ctx.UserRun(8000)
			ctx.Touch(anonV.Start+uint64((round*3)%32)*pg, mm.AccessRead)
			ctx.Touch(hugeV.Start+uint64(round%512)*pg, mm.AccessRead)
		}
	}}
	k.CPU(4).Spawn(worker)

	nominated := 0
	eng.Go("spawn-daemons", func(p *sim.Proc) {
		for !ready {
			p.Delay(20_000)
		}
		daemons.Khugepaged(k, 2, as, hugeV, 60_000, 2)
		daemons.Ksmd(k, 6, as, func() (uint64, uint64, bool) {
			if nominated >= 4 {
				return 0, 0, false
			}
			i := uint64(nominated * 2)
			nominated++
			return anonV.Start + i*pg, anonV.Start + (i+1)*pg, true
		}, 50_000, 2)
		daemons.Kswapd(k, 8, as, file, 16, 70_000, 3)
		daemons.NumaBalancer(k, 10, as, anonV, 4, 45_000, 4)
	})
	eng.Run()

	// Machine-wide coherence: no active CPU holds a translation that
	// contradicts the page tables.
	for _, c := range k.CPUs() {
		if c.CurrentMM() != as || c.Lazy() || c.HasPendingUserFlush() {
			continue
		}
		for _, se := range c.TLB.Snapshot() {
			if se.PCID != as.KernelPCID && se.PCID != as.UserPCID {
				continue
			}
			tr, err := as.PT.Walk(se.Entry.VA)
			if err != nil {
				t.Errorf("cpu%d caches unmapped va %#x", c.ID, se.Entry.VA)
				continue
			}
			if tr.Frame != se.Entry.Frame {
				t.Errorf("cpu%d stale frame at %#x: tlb %d pt %d", c.ID, se.Entry.VA, se.Entry.Frame, tr.Frame)
			}
			if se.Entry.Flags.Has(pagetable.Write) && !tr.Flags.Has(pagetable.Write) {
				t.Errorf("cpu%d grants write at %#x against RO PTE", c.ID, se.Entry.VA)
			}
		}
	}
	if f.Stats().Shootdowns == 0 {
		t.Fatal("daemon storm produced no shootdowns")
	}
}
