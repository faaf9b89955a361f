package kernel

import (
	"math/rand"
	"testing"

	"shootdown/internal/apic"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// The loops SpinUntil, DownRead and DownWrite replaced, kept as the
// reference TestSpinUntilDifferential compares against: every quiet poll
// resumes the proc, which services nothing and waits again. loopUserRun
// is UserRun as it was, timing its own waits.

func loopSpinUntil(c *CPU, p *sim.Proc, done func() bool, quantum uint64) {
	for !done() {
		loopUserRun(c, p, quantum)
	}
}

func loopUserRun(c *CPU, p *sim.Proc, d uint64) {
	remaining := d
	for remaining > 0 {
		c.ServiceIRQs(p)
		if c.Ctrl.Deliverable() {
			continue
		}
		start := p.Now()
		c.wake.WaitTimeout(p, remaining)
		elapsed := uint64(p.Now() - start)
		if elapsed >= remaining {
			remaining = 0
		} else {
			remaining -= elapsed
		}
	}
	c.ServiceIRQs(p)
}

func loopDown(c *CPU, p *sim.Proc, sem *mm.RWSem, try func() bool) {
	first := true
	for !try() {
		if first {
			sem.NoteContention()
			first = false
		}
		sem.Changed().WaitTimeout(p, blockedIRQPollQuantum)
		c.ServiceIRQs(p)
	}
}

// Task operations of the differential programs.
const (
	spinUser   = iota // SpinUntil on the task's flag, in user mode
	spinKernel        // the same inside a syscall, where lazy work is due
	compute           // UserRun(arg)
	semRead           // syscall: DownRead, KernelRun(arg), UpRead
	semWrite          // syscall: DownWrite, KernelRun(arg), UpWrite
	numSpinOps
)

type spinOp struct {
	kind    int
	arg     uint64
	quantum uint64
	sem     int
	// flips set the spinning task's flag at start + k*quantum + delta,
	// on or off the poll grid; the last one sets it for good.
	flips []flip
}

type flip struct {
	k     uint64
	delta int
	on    bool
}

// Driver actions, taken by one proc outside every CPU.
const (
	drvIPI  = iota // a reschedule IPI
	drvNMI         // an NMI
	drvFlip        // set a task's flag early
	drvLazy        // queue lazy work on a task's CPU
	numDrvActs
)

type drvItem struct {
	act    int
	task   int
	wait   uint64
	onGrid bool // land on the target's next poll boundary, if it spins
	arg    uint64
}

type spinProgram struct {
	pti    bool
	faults bool
	tasks  [][]spinOp
	driver []drvItem
}

var spinQuanta = []uint64{1, 2, 7, 200, 500, 800, 2000}

func genSpinProgram(rng *rand.Rand) spinProgram {
	prog := spinProgram{pti: rng.Intn(2) == 0, faults: rng.Intn(3) == 0}
	prog.tasks = make([][]spinOp, 2+rng.Intn(4))
	for i := range prog.tasks {
		ops := make([]spinOp, 4+rng.Intn(9))
		for j := range ops {
			op := spinOp{
				kind:    rng.Intn(numSpinOps),
				arg:     uint64(1 + rng.Intn(3000)),
				quantum: spinQuanta[rng.Intn(len(spinQuanta))],
				sem:     rng.Intn(2),
			}
			n := 1 + 2*rng.Intn(3) // odd, so the last flip is on
			k := uint64(0)
			for f := 0; f < n; f++ {
				k += uint64(1 + rng.Intn(4))
				op.flips = append(op.flips, flip{k: k, delta: rng.Intn(3) - 1, on: f%2 == 0})
			}
			ops[j] = op
		}
		prog.tasks[i] = ops
	}
	prog.driver = make([]drvItem, 10+rng.Intn(30))
	for i := range prog.driver {
		prog.driver[i] = drvItem{
			act:    rng.Intn(numDrvActs),
			task:   rng.Intn(len(prog.tasks)),
			wait:   uint64(rng.Intn(6000)),
			onGrid: rng.Intn(2) == 0,
			arg:    uint64(1 + rng.Intn(2000)),
		}
	}
	return prog
}

type spinEntry struct {
	at   sim.Time
	who  int
	step int
}

// spinResult is everything the two runs must agree on.
type spinResult struct {
	log         []spinEntry
	nows        []sim.Time
	pendings    []int
	irqs        []uint64 // IRQsHandled per CPU
	interrupted []uint64 // Interrupted per CPU
	contended   [2]uint64
	race        race.Stats
	races       int

	// onGrid records the (time, CPU) of every driver IRQ arrival and flip
	// aimed at a poll boundary, for the coverage count.
	onGrid map[gridKey]int
}

type gridKey struct {
	at  sim.Time
	cpu mach.CPU
}

// spinCov counts the cases of the quiet check the programs reached:
// semSignalRearms are release broadcasts the check re-arms, and
// spinSignals are signals (an IRQ, lazy work queued mid-spin) a spin's
// check declines.
type spinCov struct {
	spinRearms, semRearms, semSignalRearms, spinSignals, irq, lazy, done, irqOnGrid, flipOnGrid int
}

// runSpinProgram boots an 8-CPU machine with the race model (and, for a
// third of the programs, a heavy fault schedule) attached, runs prog's
// tasks on CPUs 1.., with SpinUntil/DownRead/DownWrite when engine is
// true and the reference loops otherwise, and drives the engine through
// RunUntil horizons drawn from seed. cov, when non-nil, counts the quiet
// check's outcomes.
func runSpinProgram(prog spinProgram, seed int64, engine bool, cov *spinCov) spinResult {
	eng := sim.NewEngine(uint64(seed))
	cfg := DefaultConfig()
	cfg.PTI = prog.pti
	topo := mach.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2}
	k := New(eng, topo, mach.DefaultCosts(), cfg)
	k.SetFlusher(&nopFlusher{})
	if prog.faults {
		spec, _ := fault.Preset("heavy")
		k.SetFaultPlane(fault.New(uint64(seed), spec))
	}
	det := race.New(eng)
	k.EnableRace(det)
	k.Start()
	as := k.NewAddressSpace()
	sems := [2]*mm.RWSem{as.MmapSem, k.NewAddressSpace().MmapSem}

	res := spinResult{onGrid: map[gridKey]int{}}
	logf := func(who, step int) { res.log = append(res.log, spinEntry{eng.Now(), who, step}) }

	type grid struct {
		spinning bool
		start    sim.Time
		quantum  uint64
	}
	grids := make([]grid, len(prog.tasks))
	flags := make([]bool, len(prog.tasks))
	gens := make([]int, len(prog.tasks))
	cpuOf := func(task int) mach.CPU { return mach.CPU(1 + task) }

	var quiets map[gridKey]bool
	if cov != nil {
		quiets = map[gridKey]bool{}
		for _, c := range k.CPUs() {
			c.quietFn = func(signaled bool) bool {
				if !signaled {
					quiets[gridKey{eng.Now(), c.ID}] = true
				}
				switch {
				case signaled && c.poll.spin:
					cov.spinSignals++
				case c.Ctrl.Deliverable():
					cov.irq++
				case len(c.lazyWork) > 0 && !c.inUser:
					cov.lazy++
				case c.poll.done():
					cov.done++
				case c.poll.spin:
					cov.spinRearms++
				case signaled:
					cov.semSignalRearms++
				default:
					cov.semRearms++
				}
				return c.quiet(signaled)
			}
		}
	}

	for i, ops := range prog.tasks {
		k.CPU(cpuOf(i)).Spawn(&Task{Name: "t", MM: as, Fn: func(ctx *Ctx) {
			c, p := ctx.CPU, ctx.P
			for step, op := range ops {
				logf(i, step)
				switch op.kind {
				case spinUser, spinKernel:
					if op.kind == spinKernel {
						ctx.EnterSyscall()
					}
					gens[i]++
					gen := gens[i]
					flags[i] = false
					start := p.Now()
					for _, f := range op.flips {
						at := int64(start) + int64(f.k*op.quantum) + int64(f.delta)
						eng.At(sim.Time(max(at, int64(start))), func() {
							if gens[i] == gen {
								flags[i] = f.on
								logf(-1, i)
							}
						})
					}
					grids[i] = grid{true, start, op.quantum}
					done := func() bool { return flags[i] }
					if engine {
						c.SpinUntil(p, done, op.quantum)
					} else {
						loopSpinUntil(c, p, done, op.quantum)
					}
					grids[i].spinning = false
					if op.kind == spinKernel {
						ctx.ExitSyscall()
					}
				case compute:
					ctx.UserRun(op.arg)
				case semRead, semWrite:
					sem := sems[op.sem]
					ctx.EnterSyscall()
					switch {
					case op.kind == semRead && engine:
						c.DownRead(p, sem)
					case op.kind == semRead:
						loopDown(c, p, sem, sem.TryDownRead)
					case engine:
						c.DownWrite(p, sem)
					default:
						loopDown(c, p, sem, sem.TryDownWrite)
					}
					logf(i, 1000+step)
					c.KernelRun(p, op.arg)
					if op.kind == semRead {
						sem.UpRead(p)
					} else {
						sem.UpWrite(p)
					}
					ctx.ExitSyscall()
				}
				logf(i, step)
			}
		}})
	}

	eng.Go("driver", func(p *sim.Proc) {
		for n, it := range prog.driver {
			cpu := cpuOf(it.task)
			lead := uint64(0) // cycles from the send to the arrival
			if it.act == drvIPI || it.act == drvNMI {
				lead = k.Cost.IPIWriteICR + k.Cost.IPIDeliverCost(k.Topo.DistanceBetween(0, cpu))
			}
			wait := it.wait
			g := grids[it.task]
			if it.onGrid && g.spinning {
				// The first poll boundary the action can still reach.
				earliest := p.Now() + sim.Time(lead)
				m := (uint64(earliest-g.start) + g.quantum - 1) / g.quantum
				target := g.start + sim.Time(m*g.quantum)
				wait = uint64(target - earliest)
				res.onGrid[gridKey{target, cpu}] |= 1 << it.act
			}
			p.Delay(wait)
			logf(-2, n)
			switch it.act {
			case drvIPI:
				k.Bus.SendIPI(p, 0, mach.MaskOf(cpu), apic.VectorReschedule)
			case drvNMI:
				k.Bus.SendNMI(p, 0, cpu)
			case drvFlip:
				flags[it.task] = true
			case drvLazy:
				k.CPU(cpu).QueueLazyWork(func(lp *sim.Proc) {
					logf(-3, n)
					lp.Delay(it.arg)
				})
			}
		}
	})

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 200 && eng.Pending() > 0; round++ {
		h := eng.Now() + sim.Time(rng.Intn(5000))
		if rng.Intn(4) == 0 {
			h = eng.Now()
		}
		eng.RunUntil(h)
		res.nows = append(res.nows, eng.Now())
		res.pendings = append(res.pendings, eng.Pending())
	}
	eng.Run()
	res.nows = append(res.nows, eng.Now())
	res.pendings = append(res.pendings, eng.Pending())
	for _, c := range k.CPUs() {
		res.irqs = append(res.irqs, c.IRQsHandled)
		res.interrupted = append(res.interrupted, c.Interrupted)
	}
	res.contended = [2]uint64{sems[0].Contended, sems[1].Contended}
	sum := det.Finish()
	res.race, res.races = sum.Stats, len(sum.Races)
	if cov != nil {
		for key, acts := range res.onGrid {
			if !quiets[key] {
				continue
			}
			if acts&(1<<drvIPI|1<<drvNMI) != 0 {
				cov.irqOnGrid++
			}
			if acts&(1<<drvFlip) != 0 {
				cov.flipOnGrid++
			}
		}
	}
	eng.Shutdown()
	return res
}

// TestSpinUntilDifferential proves the engine-side quiet poll exact at the
// kernel layer: seeded programs of 2 to 5 tasks, each spinning in user or
// kernel mode on a flag its own events flip on and off the poll grid,
// computing, and contending for two semaphores (several waiters on one
// cond), under a driver that sends reschedule IPIs and NMIs (some landing
// exactly on a spinner's poll boundary), sets flags early and queues lazy
// work mid-spin, with the race model and, in a third of the programs, a
// heavy fault schedule attached, run once through SpinUntil, DownRead and
// DownWrite and once through the loops they replaced. The (time, actor,
// step) logs, Now() and Pending() after every RunUntil, every CPU's
// IRQsHandled and Interrupted, the semaphores' contention counts and the
// race detector's stats must match, and every outcome of the quiet check
// must have occurred.
func TestSpinUntilDifferential(t *testing.T) {
	var cov spinCov
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := genSpinProgram(rand.New(rand.NewSource(seed)))
		got := runSpinProgram(prog, seed, true, &cov)
		want := runSpinProgram(prog, seed, false, nil)
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: engine %+v, loop %+v",
				seed, i, len(got.log), len(want.log), entryAt(got.log, i), entryAt(want.log, i))
		}
		if i := firstDiff(got.nows, want.nows); i >= 0 {
			t.Fatalf("seed %d: Now() after RunUntil %d: engine %v, loop %v", seed, i, got.nows, want.nows)
		}
		if i := firstDiff(got.pendings, want.pendings); i >= 0 {
			t.Fatalf("seed %d: Pending() after RunUntil %d: engine %v, loop %v", seed, i, got.pendings, want.pendings)
		}
		if i := firstDiff(got.irqs, want.irqs); i >= 0 {
			t.Fatalf("seed %d: cpu%d IRQsHandled: engine %d, loop %d", seed, i, got.irqs[i], want.irqs[i])
		}
		if i := firstDiff(got.interrupted, want.interrupted); i >= 0 {
			t.Fatalf("seed %d: cpu%d Interrupted: engine %d, loop %d", seed, i, got.interrupted[i], want.interrupted[i])
		}
		if got.contended != want.contended {
			t.Fatalf("seed %d: semaphore contention: engine %v, loop %v", seed, got.contended, want.contended)
		}
		if got.race != want.race || got.races != want.races {
			t.Fatalf("seed %d: race model: engine %+v (%d races), loop %+v (%d races)",
				seed, got.race, got.races, want.race, want.races)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.spinRearms == 0 || cov.semRearms == 0 || cov.semSignalRearms == 0 || cov.spinSignals == 0 ||
		cov.irq == 0 || cov.lazy == 0 || cov.done == 0 || cov.irqOnGrid == 0 || cov.flipOnGrid == 0 {
		t.Fatalf("programs missed a case of the quiet check: %+v", cov)
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func entryAt(log []spinEntry, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "end of log"
}
