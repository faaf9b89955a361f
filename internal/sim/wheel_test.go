package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// nextTime returns the minimum pending timestamp without advancing the
// cursor: the tests' view of the queue head (the engine itself asks only
// dueBy). At level 0 the slot index is the timestamp; at higher levels
// the minimum slot's list is scanned.
func (w *timerWheel) nextTime() (Time, bool) {
	if w.batch != 0 {
		return w.cur, true
	}
	if w.lvMask == 0 {
		return 0, false
	}
	l := bits.TrailingZeros(w.lvMask)
	lv := &w.levels[l]
	idx := lv.minOcc()
	if l == 0 {
		return w.cur&^Time(wheelSlots-1) | Time(idx), true
	}
	return w.minAt(lv.slots[idx].head), true
}

// TestWheelHeapOrderEquivalence is the wheel's differential test: one
// random sequence of push, nextTime, popUntil and unbounded pops drives the
// timer wheel and the reference binary heap (heap_test.go) side by side,
// and every pop and every nextTime must agree, as must dueBy at every
// peek, asked at times below, at and above the heap's minimum (one cycle
// either side, and anywhere between the last pop and it). The sequence mixes
// same-timestamp bursts, pushes at the just-popped time, horizon peeks
// that pop nothing, and far-future pushes whose pops cascade through the
// upper levels. popUntil's horizon falls below, at or above the heap's
// minimum: a refused pop must leave the wheel as it was, and after one
// the sequence pushes below the refused minimum (as after a RunUntil that
// stopped at its horizon), which must still come out first.
func TestWheelHeapOrderEquivalence(t *testing.T) {
	var refused, refusedHigh int // refusals, and those at a level above 0
	// dueBy answers at a level above 0: from a lone event in the earliest
	// slot, from a longer slot's bounds alone, and by walking the slot (t
	// inside its bounds).
	var lone, bounded, walked int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w timerWheel
		var h eventHeap
		var seq uint64
		var now Time // time of the last pop: the engine never schedules earlier
		push := func(at Time) {
			seq++
			id, ev := w.alloc()
			ev.at, ev.seq = at, seq
			w.push(id, ev)
			h.push(&Event{at: at, seq: seq})
		}
		peek := func(step int) {
			wt, wok := w.nextTime()
			ht, hok := h.nextTime()
			if wt != ht || wok != hok {
				t.Fatalf("seed %d step %d: nextTime wheel (%d, %v), heap (%d, %v)", seed, step, wt, wok, ht, hok)
			}
			if w.len() != len(h) {
				t.Fatalf("seed %d step %d: len wheel %d, heap %d", seed, step, w.len(), len(h))
			}
			ts := []Time{now + Time(rng.Int63n(1<<41))}
			if hok {
				ts = append(ts, ht, ht+1, now+Time(rng.Int63n(int64(ht-now)+1)))
				if ht > 0 {
					ts = append(ts, ht-1)
				}
			}
			for _, at := range ts {
				if got, want := w.dueBy(at), hok && ht <= at; got != want {
					t.Fatalf("seed %d step %d: dueBy(%d) = %v with the minimum at (%d, %v)", seed, step, at, got, ht, hok)
				}
				if w.batch != 0 || w.lvMask&^1 == 0 || w.lvMask&1 != 0 {
					continue
				}
				l := bits.TrailingZeros(w.lvMask)
				idx := w.levels[l].minOcc()
				if sl := w.levels[l].slots[idx]; sl.head == sl.tail {
					lone++
				} else if lo, hi := w.span(l, idx); lo <= at && at < hi {
					walked++
				} else {
					bounded++
				}
			}
		}
		pop := func(step int, horizon Time) {
			peek(step)
			min, ok := h.nextTime()
			high := w.batch == 0 && w.lvMask&1 == 0
			id, we := w.popUntil(horizon)
			if !ok || min > horizon {
				if id != 0 {
					t.Fatalf("seed %d step %d: popUntil(%d) popped (%d, seq %d) past the horizon",
						seed, step, horizon, we.at, we.seq)
				}
				peek(step) // popped nothing
				if !ok {
					return
				}
				refused++
				if high {
					refusedHigh++
				}
				for i := rng.Intn(3); i >= 0 && min > now; i-- {
					push(now + Time(rng.Int63n(int64(min-now))))
				}
				return
			}
			if id == 0 {
				t.Fatalf("seed %d step %d: popUntil(%d) refused the minimum %d", seed, step, horizon, min)
			}
			he := h.pop()
			if we.at != he.at || we.seq != he.seq {
				t.Fatalf("seed %d step %d: pop wheel (%d, seq %d), heap (%d, seq %d)",
					seed, step, we.at, we.seq, he.at, he.seq)
			}
			now = we.at
			w.release(id, we)
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				// Even seeds push no nearer than 300 cycles ahead, so the
				// wheel's minimum often sits above level 0.
				class := rng.Intn(5)
				if seed%2 == 0 {
					class = 2 + rng.Intn(3)
				}
				var d Time
				switch class {
				case 0: // at the just-popped time
				case 1:
					d = Time(rng.Intn(3))
				case 2:
					d = Time(rng.Intn(300))
				case 3:
					d = Time(rng.Intn(100_000))
				default: // far future: filed high, cascades on the way down
					d = Time(rng.Int63n(1 << 40))
				}
				n := 1
				if rng.Intn(6) == 0 {
					n += rng.Intn(20) // same-timestamp burst
				}
				for i := 0; i < n; i++ {
					push(now + d)
				}
			case op < 5:
				peek(step) // a horizon check that pops nothing
			case op < 7:
				horizon := now + Time(rng.Int63n(1<<41))
				if min, ok := h.nextTime(); ok {
					switch rng.Intn(4) {
					case 0:
						horizon = min
					case 1:
						horizon = min + Time(rng.Intn(300))
					case 2: // between the last pop and the minimum
						horizon = now + Time(rng.Int63n(int64(min-now)+1))
					default:
						horizon = min - 1
					}
				}
				pop(step, horizon)
			default:
				pop(step, ^Time(0))
			}
		}
		for len(h) > 0 || w.len() > 0 {
			pop(-1, ^Time(0))
		}
	}
	t.Logf("coverage: %d refused pops, %d of them at a level above 0; %d dueBy answers above level 0 from a lone event, %d from slot bounds, %d by a walk",
		refused, refusedHigh, lone, bounded, walked)
	if refused == 0 || refusedHigh == 0 {
		t.Fatalf("popUntil refused %d pops, %d of them at a level above 0: the sequence lost its horizon cases",
			refused, refusedHigh)
	}
	if lone == 0 || bounded == 0 || walked == 0 {
		t.Fatalf("dueBy answered %d times from a lone event, %d from slot bounds and %d by a walk: the sequence lost a case",
			lone, bounded, walked)
	}
}

// TestEngineRandomScheduleOrder drives the engine itself with random
// schedules — cancellations, callbacks that schedule at the current
// instant or nearby, RunUntil horizons — and checks the firing order
// against the (time, scheduling order) contract: no live event is lost,
// no cancelled one fires, time never goes back, and ties fire in the
// order they were scheduled.
func TestEngineRandomScheduleOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		type fired struct {
			id int
			at Time
		}
		var order []fired
		var evs []*Event
		var cancelled []bool
		var schedule func(d uint64, depth int)
		schedule = func(d uint64, depth int) {
			id := len(evs)
			cancelled = append(cancelled, false)
			evs = append(evs, e.After(d, func() {
				order = append(order, fired{id, e.Now()})
				evs[id] = nil // fired: the handle is recycled
				if depth < 2 && rng.Intn(3) == 0 {
					for i := 0; i < rng.Intn(3); i++ {
						schedule(uint64(rng.Intn(4)), depth+1)
					}
				}
			}))
		}
		for i := 0; i < 300; i++ {
			var d uint64
			switch rng.Intn(4) {
			case 0:
				d = uint64(rng.Intn(3))
			case 1:
				d = uint64(rng.Intn(200))
			case 2:
				d = uint64(rng.Intn(100_000))
			default:
				d = uint64(rng.Intn(50_000_000))
			}
			schedule(d, 0)
			if rng.Intn(10) == 0 {
				if id := rng.Intn(len(evs)); evs[id] != nil {
					evs[id].Cancel()
					evs[id] = nil
					cancelled[id] = true
				}
			}
			switch rng.Intn(20) {
			case 0:
				e.Run()
			case 1:
				e.RunUntil(e.Now() + Time(rng.Intn(1000)))
			}
		}
		e.Run()
		seen := make([]bool, len(cancelled))
		for i, f := range order {
			if cancelled[f.id] {
				t.Fatalf("seed %d: cancelled event %d fired", seed, f.id)
			}
			seen[f.id] = true
			if i == 0 {
				continue
			}
			prev := order[i-1]
			if f.at < prev.at || (f.at == prev.at && f.id < prev.id) {
				t.Fatalf("seed %d: event %d at %d fired after event %d at %d", seed, f.id, f.at, prev.id, prev.at)
			}
		}
		for id, ok := range seen {
			if !ok && !cancelled[id] {
				t.Fatalf("seed %d: live event %d never fired", seed, id)
			}
		}
	}
}

// TestWheelHorizonThenEarlierInsert is the cursor-advance regression: a
// RunUntil that stops at a horizon must not let the wheel's cursor creep
// up to the (later) pending minimum, because the caller may then legally
// schedule between the horizon and that minimum.
func TestWheelHorizonThenEarlierInsert(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10, func() { order = append(order, "t10") })
	e.At(1_000_000, func() { order = append(order, "far") })
	e.RunUntil(500) // fires t10, leaves "far"; clock rests at 10
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	// Schedule well before the pending minimum; a cursor that advanced
	// toward 1_000_000 during the horizon peek would misfile (or reject)
	// this event.
	e.At(600, func() { order = append(order, "t600") })
	e.At(11, func() { order = append(order, "t11") })
	e.Run()
	want := []string{"t10", "t11", "t600", "far"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelSameTimestampSeqOrder pins batched dispatch: many events at
// one timestamp fire in scheduling order, including ones added to the
// batch's timestamp from inside a callback of that same batch.
func TestWheelSameTimestampSeqOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(777, func() {
			order = append(order, i)
			if i == 10 {
				for j := 100; j < 103; j++ {
					j := j
					e.At(777, func() { order = append(order, j) })
				}
			}
		})
	}
	e.Run()
	if len(order) != 53 {
		t.Fatalf("fired %d events, want 53", len(order))
	}
	for i := 0; i < 50; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d (batch broke seq order)", i, order[i], i)
		}
	}
	for j := 0; j < 3; j++ {
		if order[50+j] != 100+j {
			t.Fatalf("callback-time inserts fired as %v", order[50:])
		}
	}
}

// TestWheelShutdownDrains checks the poison-unwind drain path under the
// wheel: parked processes are unwound and the queue retains nothing.
func TestWheelShutdownDrains(t *testing.T) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Proc) {
		p.Delay(1 << 40) // far future, never reached
	})
	e.Go("idler", func(p *Proc) {
		for {
			p.Delay(100)
		}
	})
	e.RunUntil(1000)
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Shutdown = %d, want 0", e.Pending())
	}
}
