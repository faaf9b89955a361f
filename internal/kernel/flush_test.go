package kernel

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// loopFlushPages is the per-page loop FlushPages replaced, kept as the
// reference TestFlushPagesDifferential compares against: rangedFlush's
// INVLPG and INVPCID loops and runDeferredUserFlushes' loop, each a
// Delay and then a flush per page, in the proc.
func loopFlushPages(c *CPU, p *sim.Proc, f pageFlush, end, cost uint64) {
	for va := f.start; va < end; va += f.stride {
		p.Delay(cost)
		c.TLB.FlushPage(f.pcid, va)
		if f.deferred {
			c.DeferredFlushes++
		}
	}
}

// flushOp is one operation of a FlushPages differential program: fill
// the range's pages (and one page either side) into both PCIDs, flush
// the range from one of them, then run user code for compute cycles.
type flushOp struct {
	user     bool
	deferred bool
	huge     bool
	start    uint64 // in strides
	pages    uint64
	cost     uint64
	compute  uint64
}

// flushCosts and flushComputes mix tiny charges, which tie with the other
// CPUs' polls and with each other, and real INVLPG/INVPCID costs.
var (
	flushCosts    = []uint64{1, 2, 3, 220, 310}
	flushComputes = []uint64{0, 1, 2, 3, 7, 220, 800}
)

func genFlushProgram(rng *rand.Rand) [][]flushOp {
	cpus := make([][]flushOp, 2+rng.Intn(3))
	for i := range cpus {
		ops := make([]flushOp, 3+rng.Intn(10))
		for j := range ops {
			ops[j] = flushOp{
				user:     rng.Intn(2) == 0,
				deferred: rng.Intn(3) == 0,
				huge:     rng.Intn(5) == 0,
				start:    uint64(rng.Intn(64)),
				pages:    uint64(rng.Intn(12)),
				cost:     flushCosts[rng.Intn(len(flushCosts))],
				compute:  flushComputes[rng.Intn(len(flushComputes))],
			}
		}
		cpus[i] = ops
	}
	return cpus
}

// flushResult is what the two runs of a program must agree on.
type flushResult struct {
	log       []spinEntry // (time, cpu, op) after every op
	tlbs      [][]tlb.SnapshotEntry
	deferred  []uint64
	selective []uint64
	now       sim.Time
	// interleaved counts flushes during which another CPU finished an
	// op: the busy machine kept events due inside the flush.
	interleaved int
}

// runFlushProgram runs prog, one task per CPU, on a PTI machine that an
// outside proc keeps busy with reschedule IPIs, under RunUntil horizons
// drawn from seed, flushing with FlushPages or, with loop set, with
// loopFlushPages.
func runFlushProgram(t *testing.T, prog [][]flushOp, seed int64, loop bool) flushResult {
	k, _ := newKernel(t, true)
	defer k.Eng.Shutdown()
	as := k.NewAddressSpace()
	var res flushResult
	for i, ops := range prog {
		c := k.CPU(mach.CPU(i))
		c.Spawn(&Task{Name: "flusher", MM: as, Fn: func(ctx *Ctx) {
			for j, op := range ops {
				size, stride := pagetable.Size4K, uint64(pg)
				if op.huge {
					size, stride = pagetable.Size2M, pagetable.PageSize2M
				}
				pcid := as.KernelPCID
				if op.user {
					pcid = as.UserPCID
				}
				start, end := op.start*stride, (op.start+op.pages)*stride
				for va := start - min(start, stride); va <= end; va += stride {
					e := tlb.Entry{VA: va, Frame: va / stride, Size: size, Flags: pagetable.Present | pagetable.User}
					c.TLB.Fill(as.KernelPCID, e)
					c.TLB.Fill(as.UserPCID, e)
				}
				ctx.EnterSyscall()
				mark := len(res.log)
				f := pageFlush{pcid: pcid, start: start, stride: stride, deferred: op.deferred}
				if loop {
					loopFlushPages(c, ctx.P, f, end, op.cost)
				} else {
					c.flushPages(ctx.P, f, end, op.cost)
				}
				if len(res.log) > mark {
					res.interleaved++
				}
				ctx.ExitSyscall()
				res.log = append(res.log, spinEntry{at: k.Eng.Now(), who: i, step: j})
				ctx.UserRun(op.compute)
			}
		}})
	}
	rng := rand.New(rand.NewSource(seed))
	k.Eng.Go("poker", func(p *sim.Proc) {
		for range 40 {
			p.Delay(uint64(1 + rng.Intn(300)))
			k.Bus.SendIPI(p, mach.CPU(len(prog)), mach.MaskOf(mach.CPU(rng.Intn(len(prog)))), 0xfd)
		}
	})
	for h := sim.Time(0); k.Eng.Pending() > 0; {
		h += sim.Time(rng.Intn(400))
		k.Eng.RunUntil(h)
	}
	for i := range prog {
		c := k.CPU(mach.CPU(i))
		res.tlbs = append(res.tlbs, c.TLB.Snapshot())
		res.deferred = append(res.deferred, c.DeferredFlushes)
		res.selective = append(res.selective, c.TLB.Stats().SelectiveFlushes)
	}
	res.now = k.Eng.Now()
	return res
}

// TestFlushPagesDifferential proves FlushPages exact against the loop it
// replaced on a busy machine: two to four CPUs each fill and flush ranges
// (kernel or user PCID, 4K or 2M strides, empty ranges, deferred-range
// counting) at costs that tie with one another and with the other CPUs'
// user runs, while an outside proc sends reschedule IPIs, under RunUntil
// horizons. Every CPU's TLB contents, DeferredFlushes and selective
// flush count, the (time, cpu, op) log and the final clock must match.
// The run checks that some flushes ran while other CPUs finished ops.
func TestFlushPagesDifferential(t *testing.T) {
	interleaved := 0
	for seed := int64(1); seed <= 60; seed++ {
		prog := genFlushProgram(rand.New(rand.NewSource(seed)))
		got := runFlushProgram(t, prog, seed, false)
		want := runFlushProgram(t, prog, seed, true)
		interleaved += got.interleaved
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: FlushPages %+v, loop %+v",
				seed, i, len(got.log), len(want.log), entryAt(got.log, i), entryAt(want.log, i))
		}
		for c := range prog {
			if i := firstDiff(got.tlbs[c], want.tlbs[c]); i >= 0 {
				t.Fatalf("seed %d: cpu%d TLB contents differ at entry %d of %d/%d", seed, c, i, len(got.tlbs[c]), len(want.tlbs[c]))
			}
		}
		if i := firstDiff(got.deferred, want.deferred); i >= 0 {
			t.Fatalf("seed %d: DeferredFlushes %v, loop %v", seed, got.deferred, want.deferred)
		}
		if i := firstDiff(got.selective, want.selective); i >= 0 {
			t.Fatalf("seed %d: selective flushes %v, loop %v", seed, got.selective, want.selective)
		}
		if got.now != want.now {
			t.Fatalf("seed %d: clock %d, loop %d", seed, got.now, want.now)
		}
	}
	t.Logf("coverage: %d flushes interleaved with other CPUs' ops", interleaved)
	if interleaved == 0 {
		t.Fatal("no flush ran while another CPU finished an op: the machine was not busy")
	}
}

// TestFlushPagesIsAllocationFree: a warm FlushPages allocates nothing,
// with its steps in the engine because another CPU keeps events due.
func TestFlushPagesIsAllocationFree(t *testing.T) {
	k, _ := newKernel(t, false)
	defer k.Eng.Shutdown()
	as := k.NewAddressSpace()
	c := k.CPU(0)
	flushes := 0
	c.Spawn(&Task{Name: "flusher", MM: as, Fn: func(ctx *Ctx) {
		for range 1000 {
			c.FlushPages(ctx.P, as.KernelPCID, 0, 8*pg, pg, k.Cost.Invlpg)
			flushes++
		}
	}})
	k.CPU(1).Spawn(&Task{Name: "busy", MM: as, Fn: func(ctx *Ctx) {
		for range 100_000 {
			ctx.UserRun(7)
		}
	}})
	k.Eng.RunUntil(200_000) // warm: boots the tasks and binds the callbacks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Eng.RunUntil(1_500_000)
	runtime.ReadMemStats(&after)
	if flushes < 500 {
		t.Fatalf("only %d flushes by the end of the window", flushes)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 10 {
		t.Fatalf("%d warm FlushPages calls allocated %d objects, want ~0", flushes, allocs)
	}
}

// TestNestedPollPanics: a poll inside another on one CPU panics naming
// the CPU. Here a deferred flush parks on a contended semaphore: a lazy
// work item that DownReads it, queued while its CPU already polls that
// semaphore in DownRead, runs at the poll's next ServiceIRQs.
func TestNestedPollPanics(t *testing.T) {
	k, _ := newKernel(t, true)
	defer k.Eng.Shutdown()
	as := k.NewAddressSpace()
	sem := as.MmapSem
	c1 := k.CPU(1)
	k.CPU(2).Spawn(&Task{Name: "holder", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		ctx.CPU.DownWrite(ctx.P, sem)
		ctx.CPU.KernelRun(ctx.P, 100_000)
		sem.UpWrite(ctx.P)
		ctx.ExitSyscall()
	}})
	k.Eng.Go("starter", func(p *sim.Proc) {
		p.Delay(1000) // the holder takes the semaphore first
		c1.Spawn(&Task{Name: "reader", MM: as, Fn: func(ctx *Ctx) {
			ctx.EnterSyscall()
			ctx.CPU.DownRead(ctx.P, sem)
			sem.UpRead(ctx.P)
			ctx.ExitSyscall()
		}})
		p.Delay(5000) // the reader polls by now
		c1.QueueLazyWork(func(p *sim.Proc) { c1.DownRead(p, sem) })
	})
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), `proc "cpu1" panicked: kernel: cpu1 started a poll inside another`) {
			t.Fatalf("run ended with %v, want the nested-poll panic naming cpu1", err)
		}
	}()
	k.Eng.Run()
}

// TestPollsInSequence: a poll's end clears it, so polls one after another
// on a CPU (a SpinUntil, then a contended DownRead) do not trip the
// nesting check.
func TestPollsInSequence(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	sem := as.MmapSem
	flag := false
	k.CPU(2).Spawn(&Task{Name: "holder", MM: as, Fn: func(ctx *Ctx) {
		ctx.EnterSyscall()
		ctx.CPU.DownWrite(ctx.P, sem)
		flag = true
		ctx.CPU.KernelRun(ctx.P, 20_000)
		sem.UpWrite(ctx.P)
		ctx.ExitSyscall()
	}})
	done := false
	k.CPU(1).Spawn(&Task{Name: "poller", MM: as, Fn: func(ctx *Ctx) {
		ctx.SpinUntil(func() bool { return flag }, 200)
		ctx.EnterSyscall()
		ctx.CPU.DownRead(ctx.P, sem)
		sem.UpRead(ctx.P)
		ctx.ExitSyscall()
		ctx.SpinUntil(func() bool { return true }, 200)
		done = true
	}})
	k.Eng.Run()
	if !done || k.CPU(1).poll.done != nil {
		t.Fatalf("done %v, a poll still active %v after the polls ended", done, k.CPU(1).poll.done != nil)
	}
}
