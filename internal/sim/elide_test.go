package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// switchDelay is Delay without event elision: the always-switch body,
// kept here as the reference the differential test compares against.
func switchDelay(p *Proc, d uint64) {
	if d == 0 {
		return
	}
	p.eng.After(d, p.resumeFn)
	p.yield()
}

// loopWaitPoll is WaitPoll as the process's own loop: wait, and on each
// signal or timeout check quiet, told which woke it, and wait again for
// period. It is the reference TestCondWaitPollDifferential compares the
// engine-side re-arm against.
func loopWaitPoll(c *Cond, p *Proc, d, period uint64, quiet func(signaled bool) bool) (left uint64) {
	for {
		deadline := p.Now() + Time(d)
		signaled := c.WaitTimeout(p, d)
		if !quiet(signaled) {
			if signaled {
				return uint64(deadline - p.Now())
			}
			return 0
		}
		d = period
	}
}

// loopDelayEach is DelayEach as the process's own loop over delay, the
// reference TestDelayEachDifferential compares the engine-side steps
// against (with Delay); the other differential tests run it over the
// delay they compare.
func loopDelayEach(delay func(p *Proc, d uint64)) func(p *Proc, n int, d uint64, step func(i int)) {
	return func(p *Proc, n int, d uint64, step func(i int)) {
		for i := range n {
			delay(p, d)
			step(i)
		}
	}
}

// diffImpl is the set of primitives one run of a differential program
// uses.
type diffImpl struct {
	delay func(p *Proc, d uint64)
	poll  func(c *Cond, p *Proc, d, period uint64, quiet func(signaled bool) bool) uint64
	each  func(p *Proc, n int, d uint64, step func(i int))
}

// Program operations of the differential test.
const (
	opDelay        = iota // Delay(arg)
	opDelayTie            // Delay to exactly the next queued event's time
	opDelayNearTie        // Delay to one cycle before or after it
	opDelayHorizon        // Delay to the running horizon, -1, 0 or +1
	opWait                // Cond.Wait
	opWaitTimeout         // Cond.WaitTimeout(arg)
	opSignal              // Cond.Signal
	opBroadcast           // Cond.Broadcast
	opAt                  // Engine.At(now+arg) with a callback that may wake a cond
	opCancel              // cancel a pending callback event
	opCancelHead          // queue an event at the head, cancel it, Delay past it
	opYield               // Proc.Yield
	opWaitPoll            // Cond.WaitPoll(arg, period) with a quiet check on a flag
	opFlip                // toggle the flag the cond's quiet checks read
	opDelayEach           // DelayEach of 0 to 8 steps that signal, flip or schedule
	numOps
)

type diffOp struct {
	kind int
	arg  uint64
	cond int
	// sel picks among runtime alternatives (which handle to cancel,
	// which callback action, which side of a tie) so the program is
	// fixed data: both runs read the same choices.
	sel int
}

// diffEntry is one line of a run's log: who did step at what time. who is
// a proc index, or -1-n for callback n; step -1 marks a proc's unwind, -2
// a quiet check that held, -3 one that failed (each with val 1 when a
// signal woke the poll), -4 a quiet check that ran with Current() not its
// proc, -5 a WaitPoll's return with its left cycles in val, and -10-i
// step i of a DelayEach, with val 1 when Current() was its proc.
type diffEntry struct {
	at   Time
	who  int
	step int
	val  uint64
}

// diffResult is everything the two runs must agree on, plus how often the
// program cancelled an event at the head of the queue.
type diffResult struct {
	log      []diffEntry
	nows     []Time // Now() after every RunUntil, then after Shutdown
	lives    []int  // LiveProcs() after every RunUntil, then after Shutdown
	pendings []int  // Pending() after every RunUntil and Run

	cancelledHeads int
	// parkedInPoll and parkedInEach count the procs Shutdown found
	// blocked in a WaitPoll and in a DelayEach.
	parkedInPoll, parkedInEach int
}

func genDiffProgram(rng *rand.Rand) [][]diffOp {
	procs := make([][]diffOp, 2+rng.Intn(5))
	for i := range procs {
		ops := make([]diffOp, 20+rng.Intn(40))
		for j := range ops {
			op := diffOp{kind: rng.Intn(numOps), cond: rng.Intn(3), sel: rng.Intn(1 << 16)}
			switch rng.Intn(4) {
			case 0:
				op.arg = uint64(rng.Intn(3))
			case 1:
				op.arg = uint64(1 + rng.Intn(40))
			case 2:
				op.arg = uint64(1 + rng.Intn(600))
			default:
				op.arg = uint64(1 + rng.Intn(70_000))
			}
			ops[j] = op
		}
		procs[i] = ops
	}
	return procs
}

// runDiffProgram runs prog on a fresh engine with impl's Delay, WaitPoll
// and DelayEach, driving it through RunUntil horizons drawn from seed.
func runDiffProgram(prog [][]diffOp, seed int64, impl diffImpl) diffResult {
	e := NewEngine(1)
	conds := []*Cond{e.NewCond(), e.NewCond(), e.NewCond()}
	// flags[i] holds every quiet check on conds[i] off while set.
	var flags [3]bool
	polling := make([]bool, len(prog))
	eaching := make([]bool, len(prog))
	var res diffResult
	logv := func(who, step int, val uint64) { res.log = append(res.log, diffEntry{e.Now(), who, step, val}) }
	logf := func(who, step int) { logv(who, step, 0) }
	delay := impl.delay

	type pending struct {
		id int
		ev *Event
	}
	var live []pending // scheduled callbacks that have neither fired nor been cancelled
	drop := func(id int) {
		live = slices.DeleteFunc(live, func(pe pending) bool { return pe.id == id })
	}
	callbacks := 0
	// at schedules callback n at t and files it as live.
	var at func(t Time, cond, sel int) pending
	at = func(t Time, cond, sel int) pending {
		id := callbacks
		callbacks++
		ev := e.At(t, func() {
			logf(-1-id, 0)
			drop(id)
			switch sel % 4 {
			case 1:
				conds[cond].Signal()
			case 2:
				conds[cond].Broadcast()
			case 3:
				switch sel % 16 {
				case 3: // a short chain, sometimes at the same instant
					at(e.Now()+Time(sel%3), cond, sel/4)
				case 7:
					flags[cond] = !flags[cond]
				}
			}
		})
		live = append(live, pending{id, ev})
		return pending{id, ev}
	}

	for i, ops := range prog {
		e.Go("p", func(p *Proc) {
			defer logf(i, -1)
			if i%2 == 0 {
				// Unwinding under Shutdown must park and be poisoned here,
				// not advance the clock.
				defer delay(p, 7)
			}
			for step, op := range ops {
				logf(i, step)
				next, queued := e.q.nextTime()
				switch op.kind {
				case opDelay:
					delay(p, op.arg)
				case opDelayTie:
					if queued && next > e.now {
						delay(p, uint64(next-e.now))
					} else {
						delay(p, op.arg)
					}
				case opDelayNearTie:
					if queued && next > e.now+1 {
						delay(p, uint64(next-e.now)-1+uint64(op.sel%3)) // -1, 0 or +1
					} else {
						delay(p, op.arg)
					}
				case opDelayHorizon:
					if h := e.horizon; h > e.now+1 && h < ^Time(0) {
						delay(p, uint64(h-e.now)-1+uint64(op.sel%3))
					} else {
						delay(p, op.arg)
					}
				case opWait:
					conds[op.cond].Wait(p)
				case opWaitTimeout:
					conds[op.cond].WaitTimeout(p, op.arg)
				case opSignal:
					conds[op.cond].Signal()
				case opBroadcast:
					conds[op.cond].Broadcast()
				case opAt:
					at(e.now+Time(op.arg), op.cond, op.sel)
				case opCancel:
					if len(live) > 0 {
						pe := live[op.sel%len(live)]
						pe.ev.Cancel()
						drop(pe.id)
					}
				case opCancelHead:
					if !queued || next > e.now+1 {
						pe := at(e.now+1, op.cond, op.sel)
						if h, _ := e.q.nextTime(); h != pe.ev.at {
							panic("sim: opCancelHead's event is not at the head")
						}
						pe.ev.Cancel()
						drop(pe.id)
						res.cancelledHeads++
						delay(p, 1+op.arg%3)
					} else {
						delay(p, op.arg)
					}
				case opYield:
					p.Yield()
				case opWaitPoll:
					// Quiet while the cond's flag is clear, for at most
					// budget re-arms, so every poll ends.
					budget := op.sel % 7
					quiet := func(signaled bool) bool {
						if e.Current() != p {
							logf(i, -4)
						}
						var woke uint64
						if signaled {
							woke = 1
						}
						if flags[op.cond] || budget == 0 {
							logv(i, -3, woke)
							return false
						}
						budget--
						logv(i, -2, woke)
						return true
					}
					polling[i] = true
					left := impl.poll(conds[op.cond], p, op.arg, 1+uint64(op.sel%700), quiet)
					polling[i] = false
					logv(i, -5, left)
				case opFlip:
					flags[op.cond] = !flags[op.cond]
				case opDelayEach:
					// n = 0 and d = 0 included; sometimes the first
					// Delay ties with the next queued event.
					n, d := op.sel%9, op.arg
					if op.sel%5 == 0 && queued && next > e.now {
						d = uint64(next - e.now)
					}
					eaching[i] = true
					impl.each(p, n, d, func(s int) {
						var cur uint64
						if e.Current() == p {
							cur = 1
						}
						logv(i, -10-s, cur)
						// Steps do what steps may: no blocking, but
						// wakes, flag flips and events, one of them a
						// tie with the next step's Delay.
						switch (op.sel>>4 + s) % 6 {
						case 1:
							conds[op.cond].Signal()
						case 2:
							flags[op.cond] = !flags[op.cond]
						case 3:
							at(e.now+Time(d), op.cond, op.sel>>3)
						case 4:
							at(e.now+Time(op.arg%3), op.cond, op.sel>>2)
						}
					})
					eaching[i] = false
				}
				logf(i, step)
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	// A third of the runs stop early, leaving whatever is still parked
	// (a WaitPoll included) to Shutdown.
	rounds, finish := 400, true
	if rng.Intn(3) == 0 {
		rounds, finish = 1+rng.Intn(30), false
	}
	for round := 0; round < rounds && e.Pending() > 0; round++ {
		h := e.Now()
		next, _ := e.q.nextTime()
		switch rng.Intn(6) {
		case 0: // at the next event: a blocked Delay's now+d when it is the head
		case 1:
			h = next - 1 // just below
		case 2:
			h = next + 1 // just above
		case 3:
			h += Time(rng.Intn(50))
		case 4:
			h += Time(rng.Intn(20_000))
		default:
			h = ^Time(0)
		}
		if rng.Intn(6) == 0 {
			h = next
		}
		e.RunUntil(h)
		res.nows = append(res.nows, e.Now())
		res.lives = append(res.lives, e.LiveProcs())
		res.pendings = append(res.pendings, e.Pending())
		if rng.Intn(4) == 0 {
			conds[rng.Intn(len(conds))].Broadcast()
		}
	}
	if finish {
		e.Run()
	}
	res.nows = append(res.nows, e.Now())
	res.lives = append(res.lives, e.LiveProcs())
	res.pendings = append(res.pendings, e.Pending())
	for i, in := range polling {
		if in {
			res.parkedInPoll++
		}
		if eaching[i] {
			res.parkedInEach++
		}
	}
	e.Shutdown()
	res.nows = append(res.nows, e.Now())
	res.lives = append(res.lives, e.LiveProcs())
	return res
}

// TestDelayElisionDifferential proves event elision exact: one seeded
// random program — 2 to 6 procs mixing Delay (ties at exactly now+d, one
// cycle either side, and targets at, just below and just above the
// running horizon), Cond Wait/WaitTimeout/WaitPoll/Signal/Broadcast,
// Engine.At callbacks that wake conds, flip quiet flags or chain more
// events, cancellations of pending callbacks and of an event at the head
// of the queue, and Yield — runs
// under RunUntil horizons at, just below and above the next queued event,
// once with Delay and once with the always-switch reference. The log of
// (time, proc, step), Now() after every RunUntil and LiveProcs() must
// match. The run also checks that every case the rule distinguishes
// occurred, so a program generator that drifts cannot pass vacuously.
func TestDelayElisionDifferential(t *testing.T) {
	// The cases the rule distinguishes: Delays that elide, ties at now+d
	// that must switch, Delays held back only by the horizon, and
	// cancelled events at the head of the queue.
	var cov struct{ elided, ties, pastHorizon, cancelledHeads int }
	counting := func(p *Proc, d uint64) {
		e := p.eng
		if t := e.now + Time(d); d > 0 && t > e.now {
			next, ok := e.q.nextTime()
			switch {
			case ok && next < t:
			case ok && next == t:
				cov.ties++
			case t > e.horizon:
				cov.pastHorizon++
			default:
				cov.elided++
			}
		}
		p.Delay(d)
	}
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := genDiffProgram(rand.New(rand.NewSource(seed)))
		got := runDiffProgram(prog, seed, diffImpl{counting, (*Cond).WaitPoll, loopDelayEach(counting)})
		want := runDiffProgram(prog, seed, diffImpl{switchDelay, (*Cond).WaitPoll, loopDelayEach(switchDelay)})
		cov.cancelledHeads += got.cancelledHeads
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: elided %+v, switched %+v",
				seed, i, len(got.log), len(want.log), entryAt(got.log, i), entryAt(want.log, i))
		}
		if i := firstDiff(got.nows, want.nows); i >= 0 {
			t.Fatalf("seed %d: Now() after RunUntil %d: elided %v, switched %v", seed, i, got.nows, want.nows)
		}
		if i := firstDiff(got.lives, want.lives); i >= 0 {
			t.Fatalf("seed %d: LiveProcs() after RunUntil %d: elided %v, switched %v", seed, i, got.lives, want.lives)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.elided == 0 || cov.ties == 0 || cov.pastHorizon == 0 || cov.cancelledHeads == 0 {
		t.Fatalf("program missed a case of the rule: %+v", cov)
	}
}

// TestCondWaitPollDifferential proves the engine-side quiet re-arm exact:
// the programs of TestDelayElisionDifferential, whose WaitPoll ops poll a
// quiet check that reads flags other procs and callbacks flip (on a
// budget, so every poll ends), run once with WaitPoll and once with
// loopWaitPoll, the proc's own WaitTimeout-and-check loop. The (time,
// proc, step) logs (quiet checks with the wake each was told of, whether
// each ran as its proc, and each poll's left cycles included), Now(),
// Pending() and LiveProcs() after every RunUntil and after Shutdown, and
// the procs Shutdown found parked in a poll must match. The run checks
// that timeout re-arms of a lone or last waiter and of one with waiters
// behind it, signal re-arms, re-arms past the horizon, failed checks,
// wakeups after a re-arm and Shutdown of a parked poller all occurred.
func TestCondWaitPollDifferential(t *testing.T) {
	var cov struct {
		rearms, notLast, signalRearms, pastHorizon, failed, wokenAfterRearm, parkedAtShutdown int
	}
	counting := func(c *Cond, p *Proc, d, period uint64, quiet func(bool) bool) uint64 {
		rearmed := false
		left := c.WaitPoll(p, d, period, func(signaled bool) bool {
			if !quiet(signaled) {
				cov.failed++
				return false
			}
			if signaled {
				cov.signalRearms++ // the wake took p off the FIFO
			} else {
				cov.rearms++
				if c.waiters[len(c.waiters)-1] != p {
					cov.notLast++
				}
			}
			if p.eng.now+Time(period) > p.eng.horizon {
				cov.pastHorizon++
			}
			rearmed = true
			return true
		})
		if rearmed && left > 0 {
			cov.wokenAfterRearm++
		}
		return left
	}
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := genDiffProgram(rand.New(rand.NewSource(seed)))
		each := loopDelayEach((*Proc).Delay)
		got := runDiffProgram(prog, seed, diffImpl{(*Proc).Delay, counting, each})
		want := runDiffProgram(prog, seed, diffImpl{(*Proc).Delay, loopWaitPoll, each})
		cov.parkedAtShutdown += got.parkedInPoll
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: engine re-arm %+v, loop %+v",
				seed, i, len(got.log), len(want.log), entryAt(got.log, i), entryAt(want.log, i))
		}
		if i := firstDiff(got.nows, want.nows); i >= 0 {
			t.Fatalf("seed %d: Now() after RunUntil %d: engine re-arm %v, loop %v", seed, i, got.nows, want.nows)
		}
		if i := firstDiff(got.pendings, want.pendings); i >= 0 {
			t.Fatalf("seed %d: Pending() after RunUntil %d: engine re-arm %v, loop %v", seed, i, got.pendings, want.pendings)
		}
		if i := firstDiff(got.lives, want.lives); i >= 0 {
			t.Fatalf("seed %d: LiveProcs() after RunUntil %d: engine re-arm %v, loop %v", seed, i, got.lives, want.lives)
		}
		if got.parkedInPoll != want.parkedInPoll {
			t.Fatalf("seed %d: %d procs parked in a poll at Shutdown, loop %d", seed, got.parkedInPoll, want.parkedInPoll)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.rearms == 0 || cov.notLast == 0 || cov.signalRearms == 0 || cov.pastHorizon == 0 ||
		cov.failed == 0 || cov.wokenAfterRearm == 0 || cov.parkedAtShutdown == 0 {
		t.Fatalf("program missed a case of the re-arm: %+v", cov)
	}
}

// TestDelayEachDifferential proves the engine-side steps exact: the
// programs of TestDelayElisionDifferential, whose DelayEach ops run 0 to
// 8 steps (d = 0 and ties at now+d included) that signal conds, flip
// quiet flags and schedule events (one a tie with the next step's
// Delay) beside procs that Delay, Yield and WaitPoll, run once with
// DelayEach and once with loopDelayEach, the proc's own loop. The (time,
// proc, step, Current()) logs, Now(), Pending() and LiveProcs() after
// every RunUntil and after Shutdown, and the procs Shutdown found parked
// in a DelayEach must match. The run checks that inline steps, engine
// steps, ties, Delays held back only by the horizon, Shutdown in the
// middle of a range, empty loops and free (d = 0) steps all occurred.
func TestDelayEachDifferential(t *testing.T) {
	var cov struct {
		inlineSteps, engineSteps, ties, pastHorizon, parkedAtShutdown, empty, free int
	}
	counting := func(p *Proc, n int, d uint64, step func(int)) {
		e := p.eng
		// classify files the Delay(d) about to run by the case it hits.
		classify := func() {
			t := e.now + Time(d)
			if d == 0 || t <= e.now {
				return
			}
			switch next, ok := e.q.nextTime(); {
			case ok && next < t:
			case ok && next == t:
				cov.ties++
			case t > e.horizon:
				cov.pastHorizon++
			}
		}
		switch {
		case n == 0:
			cov.empty++
		case d == 0:
			cov.free += n
		default:
			classify()
		}
		p.DelayEach(n, d, func(i int) {
			if p.each.step != nil {
				cov.engineSteps++
			} else {
				cov.inlineSteps++
			}
			step(i)
			if i+1 < n && d > 0 {
				classify()
			}
		})
	}
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		prog := genDiffProgram(rand.New(rand.NewSource(seed)))
		got := runDiffProgram(prog, seed, diffImpl{(*Proc).Delay, (*Cond).WaitPoll, counting})
		want := runDiffProgram(prog, seed, diffImpl{(*Proc).Delay, (*Cond).WaitPoll, loopDelayEach((*Proc).Delay)})
		cov.parkedAtShutdown += got.parkedInEach
		if i := firstDiff(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d of %d/%d: engine steps %+v, loop %+v",
				seed, i, len(got.log), len(want.log), entryAt(got.log, i), entryAt(want.log, i))
		}
		if i := firstDiff(got.nows, want.nows); i >= 0 {
			t.Fatalf("seed %d: Now() after RunUntil %d: engine steps %v, loop %v", seed, i, got.nows, want.nows)
		}
		if i := firstDiff(got.pendings, want.pendings); i >= 0 {
			t.Fatalf("seed %d: Pending() after RunUntil %d: engine steps %v, loop %v", seed, i, got.pendings, want.pendings)
		}
		if i := firstDiff(got.lives, want.lives); i >= 0 {
			t.Fatalf("seed %d: LiveProcs() after RunUntil %d: engine steps %v, loop %v", seed, i, got.lives, want.lives)
		}
		if got.parkedInEach != want.parkedInEach {
			t.Fatalf("seed %d: %d procs parked in a DelayEach at Shutdown, loop %d", seed, got.parkedInEach, want.parkedInEach)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.inlineSteps == 0 || cov.engineSteps == 0 || cov.ties == 0 || cov.pastHorizon == 0 ||
		cov.parkedAtShutdown == 0 || cov.empty == 0 || cov.free == 0 {
		t.Fatalf("program missed a case of the engine-side steps: %+v", cov)
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

func entryAt(log []diffEntry, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "end of log"
}

// TestDelayOverflowSwitches: a Delay whose now+d wraps is not elided, so
// it panics on scheduling into the past exactly as the switching path does.
func TestDelayOverflowSwitches(t *testing.T) {
	e := NewEngine(1)
	e.Go("wrap", func(p *Proc) {
		p.Delay(10)
		p.Delay(^uint64(0))
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Delay past the end of time did not panic")
		}
		e.Shutdown()
	}()
	e.Run()
}
