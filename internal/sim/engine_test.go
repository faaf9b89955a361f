package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: insertion order
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(5, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v, want all 4", fired)
	}
}

func TestProcDelay(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Go("a", func(p *Proc) {
		p.Delay(100)
		at = append(at, p.Now())
		p.Delay(50)
		at = append(at, p.Now())
	})
	e.Run()
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("at = %v, want [100 150]", at)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcZeroDelayIsFree(t *testing.T) {
	e := NewEngine(1)
	e.Go("a", func(p *Proc) {
		p.Delay(0)
		if p.Now() != 0 {
			t.Errorf("Now = %d after Delay(0), want 0", p.Now())
		}
	})
	e.Run()
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Delay(10)
		order = append(order, "a1")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Delay(5)
		order = append(order, "b1")
	})
	e.Run()
	want := "a0,b0,b1,a1"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("boom", func(p *Proc) {
		p.Delay(1)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic")
		}
		if !strings.Contains(r.(error).Error(), "kaboom") {
			t.Fatalf("panic %v does not mention cause", r)
		}
	}()
	e.Run()
}

// TestProcPanicNamesProc: the error Run re-panics with names the process
// whose body panicked, not only the cause.
func TestProcPanicNamesProc(t *testing.T) {
	e := NewEngine(1)
	e.Go("idle", func(p *Proc) { e.NewCond().Wait(p) })
	e.Go("cpu7", func(p *Proc) {
		p.Delay(1)
		panic("kaboom")
	})
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), `proc "cpu7" panicked: kaboom`) {
			t.Fatalf("Run panicked with %v, want the cause attributed to cpu7", err)
		}
		e.Shutdown()
	}()
	e.Run()
}

// TestDelayEachStepPanicNamesProc: a step that panics in the engine (its
// Delay would have switched) surfaces from Run as its proc's panic, as
// it would inside the proc, and the proc's own deferred calls run.
func TestDelayEachStepPanicNamesProc(t *testing.T) {
	e := NewEngine(1)
	e.Go("busy", func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
	unwound := false
	e.Go("cpu7", func(p *Proc) {
		defer func() { unwound = true }()
		p.DelayEach(5, 1, func(i int) {
			if i == 3 {
				if p.each.step == nil {
					t.Error("step 3 ran inline, want it in the engine")
				}
				panic("kaboom")
			}
		})
	})
	defer func() {
		err, _ := recover().(error)
		if err == nil || err.Error() != `sim: proc "cpu7" panicked: kaboom` {
			t.Fatalf("Run panicked with %v, want the step's panic attributed to cpu7", err)
		}
		if !unwound || e.LiveProcs() != 1 {
			t.Fatalf("cpu7 unwound %v, LiveProcs %d: want it unwound and only busy left", unwound, e.LiveProcs())
		}
		e.Shutdown()
	}()
	e.Run()
}

// TestEngineSideBlockPanics: engine-side code must not block. A DelayEach
// step whose own Delay would switch, one that waits on a cond, one that
// delays after running a DelayEach of its own, and a WaitPoll quiet check
// that delays each panic with a message naming the proc, where blocking
// from the engine's goroutine would be a fatal runtime error.
func TestEngineSideBlockPanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		body       func(p *Proc, c *Cond)
	}{
		{"step delays", `sim: proc "cpu3" panicked: sim: proc "cpu3" blocked in engine-side code`,
			func(p *Proc, c *Cond) { p.DelayEach(3, 1, func(int) { p.Delay(5) }) }},
		{"step waits", `sim: proc "cpu3" panicked: sim: proc "cpu3" blocked in engine-side code`,
			func(p *Proc, c *Cond) { p.DelayEach(3, 1, func(int) { c.Wait(p) }) }},
		{"step delays after a nested loop", `sim: proc "cpu3" panicked: sim: proc "cpu3" blocked in engine-side code`,
			func(p *Proc, c *Cond) {
				p.DelayEach(3, 1, func(int) {
					p.DelayEach(2, 0, func(int) {})
					p.Delay(5)
				})
			}},
		{"quiet check delays", `sim: proc "cpu3" blocked in engine-side code`,
			func(p *Proc, c *Cond) {
				c.WaitPoll(p, 10, 10, func(bool) bool {
					p.Delay(5)
					return true
				})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			c := e.NewCond()
			e.Go("busy", func(p *Proc) {
				for {
					p.Delay(1)
				}
			})
			e.Go("cpu3", func(p *Proc) { tc.body(p, c) })
			defer func() {
				var msg string
				switch r := recover().(type) {
				case error:
					msg = r.Error()
				case string:
					msg = r
				}
				if !strings.HasPrefix(msg, tc.want) {
					t.Fatalf("Run panicked with %q, want %q...", msg, tc.want)
				}
				e.Shutdown()
				if e.LiveProcs() != 0 {
					t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
				}
			}()
			e.RunUntil(1000)
		})
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	var order []string
	for _, name := range []string{"w1", "w2"} {
		name := name
		e.Go(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Delay(10)
		c.Signal()
		p.Delay(10)
		c.Signal()
	})
	e.Run()
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v, want [w1 w2]", order)
	}
}

// TestCondTimeoutFromMiddleKeepsFIFO: a WaitTimeout waiter that expires
// between two plain waiters leaves the queue in order, and its next Wait
// joins at the tail.
func TestCondTimeoutFromMiddleKeepsFIFO(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	var order []string
	e.Go("w1", func(p *Proc) {
		c.Wait(p)
		order = append(order, "w1")
	})
	e.Go("w2", func(p *Proc) {
		if c.WaitTimeout(p, 5) {
			t.Error("w2 signaled before its timeout")
		}
		order = append(order, "w2:timeout")
		c.Wait(p)
		order = append(order, "w2")
	})
	e.Go("w3", func(p *Proc) {
		c.Wait(p)
		order = append(order, "w3")
	})
	e.Go("signaler", func(p *Proc) {
		p.Delay(10)
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d at signal time, want 3", c.Waiters())
		}
		c.Signal()
		c.Signal()
		c.Signal()
	})
	e.Run()
	want := "w2:timeout,w1,w3,w2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	n := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Delay(3)
		c.Broadcast()
	})
	e.Run()
	if n != 5 {
		t.Fatalf("woken = %d, want 5", n)
	}
	if c.Waiters() != 0 {
		t.Fatalf("Waiters = %d, want 0", c.Waiters())
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	var sig1, sig2 bool
	var t1, t2 Time
	e.Go("timeout", func(p *Proc) {
		sig1 = c.WaitTimeout(p, 50)
		t1 = p.Now()
	})
	e.Run()
	if sig1 || t1 != 50 {
		t.Fatalf("timeout case: signaled=%v at=%d, want false at 50", sig1, t1)
	}

	e2 := NewEngine(1)
	c2 := e2.NewCond()
	e2.Go("waiter", func(p *Proc) {
		sig2 = c2.WaitTimeout(p, 50)
		t2 = p.Now()
	})
	e2.Go("signaler", func(p *Proc) {
		p.Delay(20)
		c2.Broadcast()
	})
	e2.Run()
	if !sig2 || t2 != 20 {
		t.Fatalf("signal case: signaled=%v at=%d, want true at 20", sig2, t2)
	}
	// The cancelled timeout must not fire later.
	if e2.Now() != 50 && e2.Now() != 20 {
		// Engine may drain the cancelled event at t=50 harmlessly.
		t.Fatalf("unexpected final time %d", e2.Now())
	}
}

func TestCondWaitTimeoutSignalRace(t *testing.T) {
	// A signal at exactly the timeout instant: the timeout event was
	// scheduled first, so it wins deterministically.
	e := NewEngine(1)
	c := e.NewCond()
	var sig bool
	e.Go("w", func(p *Proc) {
		sig = c.WaitTimeout(p, 20)
	})
	e.Go("s", func(p *Proc) {
		p.Delay(20)
		c.Broadcast()
	})
	e.Run()
	if sig {
		t.Fatal("signal at timeout instant should lose to earlier-scheduled timeout")
	}
}

// TestCondWaitPollZeroPeriodPanics: a zero period would re-arm at the
// same instant forever, so WaitPoll refuses it before it schedules
// anything (no engine runs here, so a missing check cannot hang).
func TestCondWaitPollZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCond()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Cond.WaitPoll") || !strings.Contains(msg, "zero period") {
			t.Fatalf("recovered %q, want the zero-period panic naming Cond.WaitPoll", msg)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events scheduled before the panic", e.Pending())
		}
	}()
	c.WaitPoll(nil, 10, 0, func(bool) bool { return true })
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		c := e.NewCond()
		var trace []Time
		for i := 0; i < 4; i++ {
			e.Go("w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Delay(e.Rand().Uint64n(100) + 1)
					trace = append(trace, p.Now())
					if j%3 == 0 {
						c.Broadcast()
					} else if e.Rand().Float64() < 0.3 {
						c.WaitTimeout(p, 25)
					}
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandStability(t *testing.T) {
	// Pin the first outputs so accidental algorithm changes are caught:
	// every experiment's reproducibility depends on this stream.
	r := NewRand(1)
	got := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r2 := NewRand(1)
	want := []uint64{r2.Uint64(), r2.Uint64(), r2.Uint64()}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Rand not reproducible at %d", i)
		}
	}
}

func TestRandProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		r := NewRand(seed)
		m := int(n%1000) + 1
		v := r.Intn(m)
		if v < 0 || v >= m {
			return false
		}
		f := r.Float64()
		if f < 0 || f >= 1 {
			return false
		}
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, x := range p {
			if x < 0 || x >= m || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandForkIndependent(t *testing.T) {
	r := NewRand(7)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("forked stream mirrors parent")
	}
}

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Yield()
		order = append(order, "a1")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
	})
	e.Run()
	want := "a0,b0,a1"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if e.Now() != 0 {
		t.Fatalf("Yield advanced time to %d", e.Now())
	}
}
