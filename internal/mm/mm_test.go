package mm

import (
	"errors"
	"fmt"
	"testing"

	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
)

// newAS returns an address space plus the machine-wide frame allocator it
// shares with any files created in the test (frames are physical identity,
// so one allocator must serve both).
func newAS(t *testing.T) (*AddressSpace, *pagetable.FrameAlloc) {
	t.Helper()
	eng := sim.NewEngine(1)
	alloc := pagetable.NewFrameAlloc()
	return NewAddressSpace(1, alloc, NewRWSem(eng, "mmap_sem")), alloc
}

const pg = pagetable.PageSize4K

func TestMMapAndFault(t *testing.T) {
	as, _ := newAS(t)
	v, err := as.MMap(4*pg, ProtRead|ProtWrite, Anon, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4*pg {
		t.Fatalf("len = %#x", v.Len())
	}
	res, err := as.HandleFault(v.Start+pg+123, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FaultPopulate || res.Frame == 0 {
		t.Fatalf("fault = %+v", res)
	}
	tr, err := as.PT.Walk(v.Start + pg)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Flags.Has(pagetable.Write | pagetable.Dirty | pagetable.User) {
		t.Fatalf("flags = %v", tr.Flags)
	}
	if !tr.Flags.Has(pagetable.NX) {
		t.Fatal("non-exec VMA mapped executable")
	}
}

func TestFaultErrors(t *testing.T) {
	as, _ := newAS(t)
	if _, err := as.HandleFault(0xdead000, AccessRead); !errors.Is(err, ErrNoVMA) {
		t.Fatalf("unmapped fault: %v", err)
	}
	v, _ := as.MMap(pg, ProtRead, Anon, nil, 0)
	if _, err := as.HandleFault(v.Start, AccessWrite); !errors.Is(err, ErrProt) {
		t.Fatalf("write to RO: %v", err)
	}
	if _, err := as.HandleFault(v.Start, AccessExec); !errors.Is(err, ErrProt) {
		t.Fatalf("exec of non-exec: %v", err)
	}
}

func TestPrivateFileCoW(t *testing.T) {
	as, alloc := newAS(t)
	f := NewFile("data", 16*pg, alloc)
	v, err := as.MMap(16*pg, ProtRead|ProtWrite, FilePrivate, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Read fault: maps the page cache read-only.
	res, err := as.HandleFault(v.Start, AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FaultPopulate || res.CopiedPage {
		t.Fatalf("read fault = %+v", res)
	}
	pte, _, _ := as.PT.Lookup(v.Start)
	if pte.Flags.Has(pagetable.Write) {
		t.Fatal("private file page mapped writable on read")
	}
	cacheFrame := res.Frame

	// Write fault on the now-present RO page: CoW break.
	res, err = as.HandleFault(v.Start+5, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FaultCoW || !res.CopiedPage || !res.StaleHarmful {
		t.Fatalf("cow fault = %+v", res)
	}
	if res.Frame == cacheFrame {
		t.Fatal("CoW did not allocate a private copy")
	}
	pte, _, _ = as.PT.Lookup(v.Start)
	if !pte.Flags.Has(pagetable.Write|pagetable.Dirty) || pte.Frame != res.Frame {
		t.Fatalf("post-CoW pte = %+v", pte)
	}
	// The page cache frame is untouched.
	if f.frames[0] != cacheFrame {
		t.Fatal("page cache frame replaced")
	}

	// Direct write fault on an unpopulated private page copies immediately.
	res, err = as.HandleFault(v.Start+3*pg, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FaultPopulate || !res.CopiedPage {
		t.Fatalf("direct-write private fault = %+v", res)
	}
}

func TestSharedFileDirtyTracking(t *testing.T) {
	as, alloc := newAS(t)
	f := NewFile("db", 64*pg, alloc)
	v, err := as.MMap(64*pg, ProtRead|ProtWrite, FileShared, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Read fault: clean mapping, not dirty.
	if _, err := as.HandleFault(v.Start+2*pg, AccessRead); err != nil {
		t.Fatal(err)
	}
	if f.DirtyCount() != 0 {
		t.Fatal("read dirtied the file")
	}
	// Write fault on the clean page: mkwrite.
	res, err := as.HandleFault(v.Start+2*pg, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != FaultMkWrite || res.StaleHarmful {
		t.Fatalf("mkwrite = %+v", res)
	}
	if f.DirtyCount() != 1 {
		t.Fatalf("dirty = %d", f.DirtyCount())
	}
	// Fresh write fault: populates writable+dirty in one step.
	if _, err := as.HandleFault(v.Start+7*pg, AccessWrite); err != nil {
		t.Fatal(err)
	}
	if f.DirtyCount() != 2 {
		t.Fatalf("dirty = %d", f.DirtyCount())
	}

	// Writeback: take dirty pages, write-protect their PTEs.
	idxs := f.TakeDirty(0, f.Pages())
	if len(idxs) != 2 || idxs[0] != 2 || idxs[1] != 7 {
		t.Fatalf("TakeDirty = %v", idxs)
	}
	for _, idx := range idxs {
		for _, va := range as.FilePageVAs(f, idx) {
			if !as.WriteProtectPage(va) {
				t.Fatalf("WriteProtectPage(%#x) = false", va)
			}
		}
	}
	pte, _, _ := as.PT.Lookup(v.Start + 2*pg)
	if pte.Flags.Has(pagetable.Write) || pte.Flags.Has(pagetable.Dirty) {
		t.Fatalf("pte not cleaned: %v", pte.Flags)
	}
	// Writing again re-faults through mkwrite.
	res, err = as.HandleFault(v.Start+2*pg, AccessWrite)
	if err != nil || res.Kind != FaultMkWrite {
		t.Fatalf("refault = %+v, %v", res, err)
	}
}

func TestUnmapFreesPrivateFramesOnly(t *testing.T) {
	as, alloc := newAS(t)
	f := NewFile("lib", 8*pg, alloc)
	vp, _ := as.MMap(8*pg, ProtRead|ProtWrite, FilePrivate, f, 0)
	as.HandleFault(vp.Start, AccessRead)     // page cache RO
	as.HandleFault(vp.Start+pg, AccessWrite) // private copy
	// Place the anon VMA in a distant 2 MiB region so it does not share a
	// page table with the private mapping (FreedTables check below).
	va, _ := as.MMapFixed(0x4000_0000, 2*pg, ProtRead|ProtWrite, Anon, nil, 0)
	as.HandleFault(va.Start, AccessWrite)

	liveBefore := as.alloc.Live()
	fl, err := as.Unmap(vp.Start, vp.Len())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Pages != 2 || !fl.FreedTables {
		t.Fatalf("unmap flush = %+v", fl)
	}
	// Only the private copy is freed; the page-cache frame stays.
	if got := liveBefore - as.alloc.Live(); got != 1 {
		t.Fatalf("freed %d private frames, want 1", got)
	}
	if len(f.Mappers()) != 0 {
		t.Fatal("file still has mappers")
	}
	// Anon unmap frees its frame.
	liveBefore = as.alloc.Live()
	if _, err := as.Unmap(va.Start, va.Len()); err != nil {
		t.Fatal(err)
	}
	if got := liveBefore - as.alloc.Live(); got != 1 {
		t.Fatalf("freed %d anon frames, want 1", got)
	}
}

func TestMadviseDontneed(t *testing.T) {
	as, _ := newAS(t)
	v, _ := as.MMap(8*pg, ProtRead|ProtWrite, Anon, nil, 0)
	for i := uint64(0); i < 8; i++ {
		as.HandleFault(v.Start+i*pg, AccessWrite)
	}
	fl, err := as.MadviseDontneed(v.Start, 4*pg)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Pages != 4 || fl.FreedTables {
		t.Fatalf("madvise flush = %+v (FreedTables must be false)", fl)
	}
	// VMA still present: refault works.
	if _, err := as.HandleFault(v.Start, AccessWrite); err != nil {
		t.Fatal(err)
	}
	// Unknown range errors.
	if _, err := as.MadviseDontneed(0xdd000, pg); !errors.Is(err, ErrNoVMA) {
		t.Fatalf("bad madvise: %v", err)
	}
}

func TestProtect(t *testing.T) {
	as, _ := newAS(t)
	v, _ := as.MMap(8*pg, ProtRead|ProtWrite, Anon, nil, 0)
	for i := uint64(0); i < 8; i++ {
		as.HandleFault(v.Start+i*pg, AccessWrite)
	}
	fl, err := as.Protect(v.Start+2*pg, 3*pg, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Pages != 3 {
		t.Fatalf("protect changed %d pages", fl.Pages)
	}
	// VMA was split into three.
	if got := len(as.VMAs()); got != 3 {
		t.Fatalf("VMAs = %d, want 3", got)
	}
	pte, _, _ := as.PT.Lookup(v.Start + 2*pg)
	if pte.Flags.Has(pagetable.Write) {
		t.Fatal("PTE still writable after mprotect(R)")
	}
	// Faulting a write inside the RO region now fails.
	if _, err := as.HandleFault(v.Start+2*pg, AccessWrite); !errors.Is(err, ErrProt) {
		t.Fatalf("write to mprotected: %v", err)
	}
	// Outside it still works.
	pte, _, _ = as.PT.Lookup(v.Start)
	if !pte.Flags.Has(pagetable.Write) {
		t.Fatal("PTE outside range lost Write")
	}
}

func TestVMASplitRanges(t *testing.T) {
	as, _ := newAS(t)
	v, _ := as.MMap(10*pg, ProtRead, Anon, nil, 0)
	fl, err := as.Unmap(v.Start+4*pg, 2*pg)
	if err != nil {
		t.Fatal(err)
	}
	_ = fl
	vmas := as.VMAs()
	if len(vmas) != 2 {
		t.Fatalf("VMAs = %d, want 2 after hole punch", len(vmas))
	}
	if vmas[0].End != v.Start+4*pg || vmas[1].Start != v.Start+6*pg {
		t.Fatalf("split bounds wrong: %+v", vmas)
	}
	if as.FindVMA(v.Start+5*pg) != nil {
		t.Fatal("hole still covered")
	}
}

func TestFileOffsetsAfterSplit(t *testing.T) {
	as, alloc := newAS(t)
	f := NewFile("x", 10*pg, alloc)
	v, _ := as.MMap(10*pg, ProtRead|ProtWrite, FileShared, f, 0)
	if _, err := as.Unmap(v.Start, 2*pg); err != nil {
		t.Fatal(err)
	}
	rest := as.FindVMA(v.Start + 2*pg)
	if rest == nil || rest.FileOff != 2*pg {
		t.Fatalf("remainder VMA = %+v", rest)
	}
	// Faulting through the remainder maps the correct file page.
	res, err := as.HandleFault(v.Start+2*pg, AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame != f.frames[2] {
		t.Fatalf("frame = %d, want file page 2 = %d", res.Frame, f.frames[2])
	}
}

func TestGenBumping(t *testing.T) {
	as, _ := newAS(t)
	if as.Gen() != 1 {
		t.Fatalf("initial gen = %d", as.Gen())
	}
	if g := as.BumpGen(); g != 2 || as.Gen() != 2 {
		t.Fatalf("bump = %d, gen = %d", g, as.Gen())
	}
}

func TestActiveCPUMask(t *testing.T) {
	as, _ := newAS(t)
	as.SetActive(3)
	as.SetActive(40)
	m := as.ActiveCPUs()
	if !m.Has(3) || !m.Has(40) || m.Count() != 2 {
		t.Fatalf("mask = %v", m)
	}
	as.ClearActive(3)
	if as.ActiveCPUs().Has(3) {
		t.Fatal("clear failed")
	}
}

func TestMMapFixedOverlap(t *testing.T) {
	as, _ := newAS(t)
	if _, err := as.MMapFixed(0x100000, 4*pg, ProtRead, Anon, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MMapFixed(0x100000+2*pg, 4*pg, ProtRead, Anon, nil, 0); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap: %v", err)
	}
	if _, err := as.MMapFixed(0x100001, pg, ProtRead, Anon, nil, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("misaligned: %v", err)
	}
}

func TestRWSem(t *testing.T) {
	eng := sim.NewEngine(1)
	sem := NewRWSem(eng, "test")
	var order []string
	eng.Go("r1", func(p *sim.Proc) {
		sem.DownRead(p)
		order = append(order, "r1+")
		p.Delay(100)
		order = append(order, "r1-")
		sem.UpRead(p)
	})
	eng.Go("r2", func(p *sim.Proc) {
		sem.DownRead(p)
		order = append(order, "r2+")
		p.Delay(50)
		order = append(order, "r2-")
		sem.UpRead(p)
	})
	eng.Go("w", func(p *sim.Proc) {
		p.Delay(10)
		sem.DownWrite(p)
		order = append(order, "w+")
		sem.UpWrite(p)
	})
	eng.Run()
	// Both readers enter concurrently; the writer waits for both.
	if order[0] != "r1+" || order[1] != "r2+" {
		t.Fatalf("readers not concurrent: %v", order)
	}
	if order[len(order)-1] != "w+" {
		t.Fatalf("writer did not wait for readers: %v", order)
	}
	if sem.Contended == 0 {
		t.Fatal("writer should have recorded contention")
	}
}

func TestRWSemWriterBlocksReaders(t *testing.T) {
	eng := sim.NewEngine(1)
	sem := NewRWSem(eng, "test")
	var readerAt sim.Time
	eng.Go("w", func(p *sim.Proc) {
		sem.DownWrite(p)
		p.Delay(100)
		sem.UpWrite(p)
	})
	eng.Go("r", func(p *sim.Proc) {
		p.Delay(1)
		sem.DownRead(p)
		readerAt = p.Now()
		sem.UpRead(p)
	})
	eng.Run()
	if readerAt < 100 {
		t.Fatalf("reader entered at %d during write hold", readerAt)
	}
}

func TestRWSemMisuse(t *testing.T) {
	eng := sim.NewEngine(1)
	sem := NewRWSem(eng, "test")
	eng.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("UpRead without DownRead did not panic")
			}
		}()
		sem.UpRead(p)
	})
	eng.Run()
}

// TestRWSemCanDownIsPure: CanDownRead and CanDownWrite answer what the
// Try variants would do in every holder state, and fire no hook.
func TestRWSemCanDownIsPure(t *testing.T) {
	sem := NewRWSem(sim.NewEngine(1), "s")
	fired := 0
	sem.Acquired.Add(func(*RWSem) { fired++ })
	sem.Released.Add(func(*RWSem) { fired++ })
	check := func(state string, read, write bool) {
		t.Helper()
		before := fired
		if sem.CanDownRead() != read || sem.CanDownWrite() != write {
			t.Fatalf("%s: CanDownRead/CanDownWrite = %v/%v, want %v/%v",
				state, sem.CanDownRead(), sem.CanDownWrite(), read, write)
		}
		if fired != before {
			t.Fatalf("%s: a Can check fired a hook", state)
		}
	}
	check("free", true, true)
	sem.TryDownRead()
	check("one reader", true, false)
	if sem.TryDownWrite() {
		t.Fatal("TryDownWrite succeeded under a reader")
	}
	sem.UpRead(nil)
	sem.TryDownWrite()
	check("writer", false, false)
	if sem.TryDownRead() {
		t.Fatal("TryDownRead succeeded under a writer")
	}
	sem.UpWrite(nil)
	check("free again", true, true)
}

// TestRWSemUncontendedReadAllocatesNothing: with no race detector and no
// subscriber, an uncontended read acquire/release pair costs no
// allocation (the detector's sync name is built once, when it attaches).
func TestRWSemUncontendedReadAllocatesNothing(t *testing.T) {
	sem := NewRWSem(sim.NewEngine(1), "mmap_sem[1]")
	if n := testing.AllocsPerRun(100, func() {
		if !sem.TryDownRead() {
			t.Fatal("uncontended TryDownRead failed")
		}
		sem.UpRead(nil)
	}); n != 0 {
		t.Fatalf("TryDownRead/UpRead allocated %v times per pair, want 0", n)
	}
}

// TestRWSemHooksSeeEveryTransition: Acquired and Released fire once per
// acquisition and release, for every subscriber, after the state change.
func TestRWSemHooksSeeEveryTransition(t *testing.T) {
	sem := NewRWSem(sim.NewEngine(1), "s")
	var log []string
	for _, who := range []string{"a", "b"} {
		sem.Acquired.Add(func(s *RWSem) {
			if s.Readers() == 0 && !s.HeldForWrite() {
				t.Error("Acquired fired before the acquisition took effect")
			}
			log = append(log, who+"+")
		})
		sem.Released.Add(func(s *RWSem) { log = append(log, who+"-") })
	}
	sem.TryDownRead()
	sem.UpRead(nil)
	sem.TryDownWrite()
	sem.UpWrite(nil)
	if got, want := fmt.Sprint(log), "[a+ b+ a- b- a+ b+ a- b-]"; got != want {
		t.Fatalf("hook log = %s, want %s", got, want)
	}
}
