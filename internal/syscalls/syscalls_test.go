package syscalls_test

import (
	"errors"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

const pg = pagetable.PageSize4K

func newWorld(t *testing.T, cfg core.Config) (*sim.Engine, *kernel.Kernel, *core.Flusher) {
	t.Helper()
	eng := sim.NewEngine(1)
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

// runOn runs fn as a task on cpu0 and drives the engine to completion.
func runOn(t *testing.T, k *kernel.Kernel, eng *sim.Engine, fn func(ctx *kernel.Ctx)) {
	t.Helper()
	as := k.NewAddressSpace()
	task := &kernel.Task{Name: "t", MM: as, Fn: fn}
	k.CPU(0).Spawn(task)
	eng.Run()
	if !task.Done() {
		t.Fatal("task did not complete")
	}
}

func TestMMapMunmapLifecycle(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			if err := ctx.Touch(v.Start+i*pg, mm.AccessWrite); err != nil {
				t.Error(err)
			}
		}
		if err := syscalls.Munmap(ctx, v.Start, v.Len()); err != nil {
			t.Error(err)
		}
		// Accessing the unmapped region faults.
		if err := ctx.Touch(v.Start, mm.AccessRead); !errors.Is(err, mm.ErrNoVMA) {
			t.Errorf("post-munmap access: %v", err)
		}
		// The local TLB holds nothing for the old range.
		if _, ok := ctx.CPU.TLB.Lookup(k.PCIDOf(ctx.MM(), true), v.Start); ok {
			t.Error("stale TLB entry survived munmap")
		}
	})
}

func TestMadviseKeepsVMA(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		if err := syscalls.MadviseDontneed(ctx, v.Start, 4*pg); err != nil {
			t.Error(err)
		}
		// Refault works (VMA intact) and yields a fresh zero page.
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
	})
}

func TestMprotectEnforced(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		ctx.Touch(v.Start, mm.AccessWrite)
		if err := syscalls.Mprotect(ctx, v.Start, 4*pg, mm.ProtRead); err != nil {
			t.Error(err)
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); !errors.Is(err, mm.ErrProt) {
			t.Errorf("write after mprotect(R): %v", err)
		}
		if err := ctx.Touch(v.Start, mm.AccessRead); err != nil {
			t.Errorf("read after mprotect(R): %v", err)
		}
	})
}

func TestMsyncCleansRange(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	file := k.NewFile("f", 8*pg)
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			ctx.Touch(v.Start+i*pg, mm.AccessWrite)
		}
		if file.DirtyCount() != 8 {
			t.Errorf("dirty = %d", file.DirtyCount())
		}
		if err := syscalls.Msync(ctx, v.Start, 4*pg); err != nil {
			t.Error(err)
		}
		if file.DirtyCount() != 4 {
			t.Errorf("dirty after partial msync = %d", file.DirtyCount())
		}
		if err := syscalls.Fdatasync(ctx, file); err != nil {
			t.Error(err)
		}
		if file.DirtyCount() != 0 {
			t.Errorf("dirty after fdatasync = %d", file.DirtyCount())
		}
	})
}

func TestMsyncRequiresFileVMA(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := syscalls.Msync(ctx, v.Start, 4*pg); !errors.Is(err, mm.ErrNoVMA) {
			t.Errorf("msync on anon: %v", err)
		}
	})
}

func TestWritebackFlushesAreClustered(t *testing.T) {
	// Sequentially dirtied pages must merge into one flush; scattered
	// pages must produce one small shootdown each.
	count := func(dirtySeq bool) uint64 {
		eng, k, f := newWorld(t, core.Baseline())
		file := k.NewFile("f", 64*pg)
		runOn(t, k, eng, func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 64*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := uint64(0); i < 8; i++ {
				idx := i
				if !dirtySeq {
					idx = i * 7 // scattered
				}
				ctx.Touch(v.Start+idx*pg, mm.AccessWrite)
			}
			f.ResetStats()
			if err := syscalls.Fdatasync(ctx, file); err != nil {
				t.Error(err)
			}
		})
		return f.Stats().LocalOnly + f.Stats().Shootdowns
	}
	seq := count(true)
	scattered := count(false)
	if seq != 1 {
		t.Fatalf("sequential dirty pages produced %d flushes, want 1", seq)
	}
	if scattered != 8 {
		t.Fatalf("scattered dirty pages produced %d flushes, want 8", scattered)
	}
}

func TestBatchedSectionsMarkedOnlyWhenEnabled(t *testing.T) {
	for _, batching := range []bool{false, true} {
		cfg := core.Baseline()
		cfg.UserspaceBatching = batching
		eng, k, f := newWorld(t, cfg)
		file := k.NewFile("f", 8*pg)
		sawBatched := false
		as := k.NewAddressSpace()
		probeDone := false
		// A probe watches cpu0's batched flag while the syscall runs.
		eng.Go("probe", func(p *sim.Proc) {
			for !probeDone {
				if k.CPU(0).InBatchedSyscall() {
					sawBatched = true
				}
				p.Delay(200)
			}
		})
		task := &kernel.Task{Name: "t", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 8*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for i := uint64(0); i < 8; i++ {
				ctx.Touch(v.Start+i*pg, mm.AccessWrite)
			}
			if err := syscalls.Fdatasync(ctx, file); err != nil {
				t.Error(err)
			}
			probeDone = true
		}}
		k.CPU(0).Spawn(task)
		eng.Run()
		if sawBatched != batching {
			t.Fatalf("batching=%v but section observed=%v", batching, sawBatched)
		}
		_ = f
	}
}

func TestBadArgumentsPropagate(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		if _, err := syscalls.MMap(ctx, 123, mm.ProtRead, mm.Anon, nil, 0); !errors.Is(err, mm.ErrBadRange) {
			t.Errorf("misaligned mmap: %v", err)
		}
		if err := syscalls.Munmap(ctx, 0x1000, 0); !errors.Is(err, mm.ErrBadRange) {
			t.Errorf("zero munmap: %v", err)
		}
		if err := syscalls.MadviseDontneed(ctx, 0xbad000, pg); !errors.Is(err, mm.ErrNoVMA) {
			t.Errorf("bad madvise: %v", err)
		}
		if err := syscalls.Mprotect(ctx, 0xbad000, pg, mm.ProtRead); !errors.Is(err, mm.ErrNoVMA) {
			t.Errorf("bad mprotect: %v", err)
		}
	})
}

func TestSyscallsLeaveUserMode(t *testing.T) {
	eng, k, _ := newWorld(t, core.Baseline())
	runOn(t, k, eng, func(ctx *kernel.Ctx) {
		if _, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead, mm.Anon, nil, 0); err != nil {
			t.Error(err)
		}
		if !ctx.CPU.InUser() {
			t.Error("not back in user mode after syscall")
		}
		if ctx.MM().MmapSem.HeldForWrite() || ctx.MM().MmapSem.Readers() != 0 {
			t.Error("mmap_sem leaked")
		}
	})
}
