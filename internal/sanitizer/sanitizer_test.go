package sanitizer_test

import (
	"strings"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

const pg = 0x1000

type world struct {
	eng *sim.Engine
	k   *kernel.Kernel
	f   *core.Flusher
	chk *sanitizer.Checker
}

func newCheckedWorld(t *testing.T, pti bool, cfg core.Config, seed uint64) *world {
	t.Helper()
	eng := sim.NewEngine(seed)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = pti
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := sanitizer.Attach(k, f, sanitizer.Config{AllowLazyWindow: cfg.LazyRemote})
	k.SetFlusher(f)
	k.Start()
	return &world{eng, k, f, chk}
}

// runMadvise is the paper's microbenchmark shape under the checker: an
// initiator touches and madvises pages while a responder reuses the same
// translations from another CPU.
func runMadvise(t *testing.T, w *world) {
	t.Helper()
	as := w.k.NewAddressSpace()
	var probe uint64
	phase := 0
	resp := &kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		for probe == 0 {
			ctx.UserRun(500)
		}
		if err := ctx.Touch(probe, mm.AccessRead); err != nil {
			t.Error(err)
		}
		phase = 1
		for phase != 2 {
			ctx.UserRun(500)
		}
		// Re-touch after the shootdown: must fault and repopulate, never
		// translate through a stale entry.
		if err := ctx.Touch(probe, mm.AccessWrite); err != nil {
			t.Error(err)
		}
	}}
	w.k.CPU(2).Spawn(resp)
	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			phase = 2
			return
		}
		for rep := 0; rep < 2; rep++ {
			// Second pass hits the TLB: the checker validates every hit.
			for i := uint64(0); i < 8; i++ {
				if err := ctx.Touch(v.Start+i*pg, mm.AccessWrite); err != nil {
					t.Error(err)
				}
			}
		}
		probe = v.Start
		for phase != 1 {
			ctx.UserRun(500)
		}
		if err := syscalls.MadviseDontneed(ctx, v.Start, 8*pg); err != nil {
			t.Error(err)
		}
		phase = 2
	}}
	w.k.CPU(0).Spawn(init)
	w.eng.Run()
	if !resp.Done() || !init.Done() {
		t.Fatal("tasks did not finish")
	}
}

// TestCleanProtocolHasNoViolations runs the shootdown scenario under every
// cumulative optimization level in both modes: the real protocol must be
// coherent under the oracle.
func TestCleanProtocolHasNoViolations(t *testing.T) {
	for _, pti := range []bool{true, false} {
		for _, cfg := range core.CumulativeConfigs(pti) {
			w := newCheckedWorld(t, pti, cfg, 42)
			runMadvise(t, w)
			sum := w.chk.Finish()
			if !sum.OK() {
				t.Fatalf("pti=%v cfg=%s:\n%s", pti, cfg, sum.Report())
			}
			if sum.Stats.TLBHits == 0 || sum.Stats.ObligationsOpened == 0 {
				t.Fatalf("pti=%v cfg=%s: checker saw no traffic: %+v", pti, cfg, sum.Stats)
			}
		}
	}
}

// TestCleanForkCoWHasNoViolations exercises the write-protect obligation
// path (fork) and the CoW fixup path under the checker, including the
// §4.1 write trick, and verifies the fork child's shadow seeds correctly.
func TestCleanForkCoWHasNoViolations(t *testing.T) {
	for _, avoid := range []bool{false, true} {
		cfg := core.AllGeneral()
		cfg.AvoidCoWFlush = avoid
		w := newCheckedWorld(t, true, cfg, 7)
		as := w.k.NewAddressSpace()
		task := &kernel.Task{Name: "forker", MM: as, Fn: func(ctx *kernel.Ctx) {
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
			if _, err := syscalls.Fork(ctx); err != nil {
				t.Error(err)
			}
			// Write after fork: CoW break on every page.
			for i := uint64(0); i < 8; i++ {
				if err := ctx.Touch(v.Start+i*pg, mm.AccessWrite); err != nil {
					t.Error(err)
				}
			}
		}}
		w.k.CPU(0).Spawn(task)
		w.eng.Run()
		if !task.Done() {
			t.Fatal("task did not finish")
		}
		sum := w.chk.Finish()
		if !sum.OK() {
			t.Fatalf("avoidCoW=%v:\n%s", avoid, sum.Report())
		}
	}
}

// brokenFlusher elides every TLB flush: the checker must catch the first
// resulting stale translation.
type brokenFlusher struct{}

func (brokenFlusher) FlushAfter(ctx *kernel.Ctx, as *mm.AddressSpace, fr mm.FlushRange) {}
func (brokenFlusher) CoWFixup(ctx *kernel.Ctx, as *mm.AddressSpace, res mm.FaultResult) {}
func (brokenFlusher) BatchingEnabled() bool                                             { return false }

// runBrokenFlusher runs the broken-flusher scenario with n checkers
// attached to one kernel and returns their finished summaries: the
// responder CPU re-reads a page the initiator unmapped, and no shootdown
// ever arrives.
func runBrokenFlusher(t *testing.T, n int) []*sanitizer.Summary {
	t.Helper()
	eng := sim.NewEngine(3)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = false
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
	chks := make([]*sanitizer.Checker, n)
	for i := range chks {
		chks[i] = sanitizer.Attach(k, nil, sanitizer.Config{})
	}
	k.SetFlusher(brokenFlusher{})
	k.Start()

	as := k.NewAddressSpace()
	var probe uint64
	phase := 0
	resp := &kernel.Task{Name: "victim", MM: as, Fn: func(ctx *kernel.Ctx) {
		for probe == 0 {
			ctx.UserRun(500)
		}
		if err := ctx.Touch(probe, mm.AccessRead); err != nil {
			t.Error(err)
		}
		phase = 1
		for phase != 2 {
			ctx.UserRun(500)
		}
		// The page is gone but no shootdown ever arrived: this access
		// translates through the stale entry and "succeeds".
		if err := ctx.Touch(probe, mm.AccessRead); err != nil {
			t.Errorf("stale access unexpectedly faulted: %v", err)
		}
	}}
	k.CPU(2).Spawn(resp)
	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			phase = 2
			return
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		probe = v.Start
		for phase != 1 {
			ctx.UserRun(500)
		}
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			t.Error(err)
		}
		phase = 2
	}}
	k.CPU(0).Spawn(init)
	eng.Run()
	if !resp.Done() || !init.Done() {
		t.Fatal("tasks did not finish")
	}
	sums := make([]*sanitizer.Summary, n)
	for i, chk := range chks {
		sums[i] = chk.Finish()
	}
	return sums
}

// checkOneStaleRead asserts sum holds exactly the one stale-translation
// violation of the broken-flusher scenario.
func checkOneStaleRead(t *testing.T, sum *sanitizer.Summary) {
	t.Helper()
	if len(sum.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1:\n%s", len(sum.Violations), sum.Report())
	}
	v := sum.Violations[0]
	if v.Kind != "stale-translation" || v.CPU != 2 {
		t.Fatalf("violation = %+v", v)
	}
	for _, want := range []string{"no longer mapped", "unmap", "return-to-user", "cpu0"} {
		if !strings.Contains(v.Msg, want) {
			t.Errorf("violation message missing %q:\n%s", want, v.Msg)
		}
	}
}

// TestBrokenFlusherCaughtExactlyOnce: with a flusher that elides the
// required shootdown, the single stale re-read on the responder CPU must
// produce exactly one stale-translation violation.
func TestBrokenFlusherCaughtExactlyOnce(t *testing.T) {
	checkOneStaleRead(t, runBrokenFlusher(t, 1)[0])
}

// TestSecondCheckerKeepsFirstSubscribed: attaching a second checker to the
// same kernel adds a subscriber to every hook instead of replacing the
// first checker's, so both see every PTE change and TLB hit and both
// report the stale translation.
func TestSecondCheckerKeepsFirstSubscribed(t *testing.T) {
	sums := runBrokenFlusher(t, 2)
	for _, sum := range sums {
		checkOneStaleRead(t, sum)
	}
	if sums[0].Stats != sums[1].Stats {
		t.Fatalf("checkers disagree:\nfirst:  %+v\nsecond: %+v", sums[0].Stats, sums[1].Stats)
	}
	if st := sums[0].Stats; st.PTEChanges == 0 || st.TLBHits == 0 {
		t.Fatalf("first checker saw no PTE changes or hits: %+v", st)
	}
}

// TestLazyWindowLegality: the LATR-style lazy extension deliberately leaves
// a staleness window (§2.3.2). Without AllowLazyWindow the checker reports
// it; with the flag the same run is clean and counted as a legal lazy hit.
func TestLazyWindowLegality(t *testing.T) {
	run := func(allow bool) *sanitizer.Summary {
		eng := sim.NewEngine(5)
		kcfg := kernel.DefaultConfig()
		k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
		f, err := core.NewFlusher(k, core.Config{LazyRemote: true})
		if err != nil {
			t.Fatal(err)
		}
		chk := sanitizer.Attach(k, f, sanitizer.Config{AllowLazyWindow: allow})
		k.SetFlusher(f)
		k.Start()

		as := k.NewAddressSpace()
		var probe uint64
		phase := 0
		victim := &kernel.Task{Name: "victim", MM: as, Fn: func(ctx *kernel.Ctx) {
			for probe == 0 {
				ctx.UserRun(500)
			}
			if err := ctx.Touch(probe, mm.AccessRead); err != nil {
				t.Error(err)
			}
			phase = 1
			for phase != 2 {
				ctx.UserRun(500)
			}
			// The lazy shootdown is queued but not yet swept: this access
			// lands inside the lazy staleness window.
			if err := ctx.Touch(probe, mm.AccessRead); err != nil {
				t.Errorf("lazy-window access faulted: %v", err)
			}
		}}
		k.CPU(2).Spawn(victim)
		init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				phase = 2
				return
			}
			if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
				t.Error(err)
			}
			probe = v.Start
			for phase != 1 {
				ctx.UserRun(500)
			}
			if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
				t.Error(err)
			}
			phase = 2
		}}
		k.CPU(0).Spawn(init)
		eng.Run()
		if !victim.Done() || !init.Done() {
			t.Fatal("tasks did not finish")
		}
		return chk.Finish()
	}

	strict := run(false)
	if len(strict.Violations) == 0 {
		t.Fatalf("strict mode missed the lazy staleness window:\n%s", strict.Report())
	}
	if strict.Violations[0].Kind != "stale-translation" {
		t.Fatalf("violation = %+v", strict.Violations[0])
	}
	lax := run(true)
	if !lax.OK() {
		t.Fatalf("lazy window not legalized:\n%s", lax.Report())
	}
	if lax.Stats.StaleLegalLazy == 0 {
		t.Fatalf("no lazy-window hit counted: %+v", lax.Stats)
	}
}

// TestLockdepDetectsInversion: two processes taking two rwsems in opposite
// orders is the classic deadlock shape; the checker's lock-order graph
// must flag the second ordering.
func TestLockdepDetectsInversion(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kernel.DefaultConfig())
	chk := sanitizer.Attach(k, nil, sanitizer.Config{})
	k.SetFlusher(brokenFlusher{})

	a := mm.NewRWSem(eng, "sem_a")
	b := mm.NewRWSem(eng, "sem_b")
	chk.WatchSem(a)
	chk.WatchSem(b)

	eng.Go("t1", func(p *sim.Proc) {
		a.DownRead(p)
		p.Delay(10)
		b.DownRead(p)
		p.Delay(10)
		b.UpRead(p)
		a.UpRead(p)
	})
	eng.Go("t2", func(p *sim.Proc) {
		p.Delay(100)
		b.DownRead(p)
		p.Delay(10)
		a.DownRead(p)
		p.Delay(10)
		a.UpRead(p)
		b.UpRead(p)
	})
	eng.Run()

	sum := chk.Finish()
	var found *sanitizer.Violation
	for i := range sum.Violations {
		if sum.Violations[i].Kind == "lock-order" {
			found = &sum.Violations[i]
		}
	}
	if found == nil {
		t.Fatalf("no lock-order violation:\n%s", sum.Report())
	}
	if !strings.Contains(found.Msg, "sem_a") || !strings.Contains(found.Msg, "sem_b") {
		t.Fatalf("violation message lacks lock names:\n%s", found.Msg)
	}
}

// TestCheckedRunIsCycleIdentical: attaching the checker must not change
// simulated time — all hooks are observational.
func TestCheckedRunIsCycleIdentical(t *testing.T) {
	run := func(check bool) sim.Time {
		eng := sim.NewEngine(42)
		cfg := core.AllGeneral()
		kcfg := kernel.DefaultConfig()
		k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
		f, err := core.NewFlusher(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if check {
			sanitizer.Attach(k, f, sanitizer.Config{})
		}
		k.SetFlusher(f)
		k.Start()
		as := k.NewAddressSpace()
		task := &kernel.Task{Name: "t", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < 3; r++ {
				for i := uint64(0); i < 8; i++ {
					ctx.Touch(v.Start+i*pg, mm.AccessWrite)
				}
				if err := syscalls.MadviseDontneed(ctx, v.Start, 8*pg); err != nil {
					t.Error(err)
				}
			}
		}}
		k.CPU(0).Spawn(task)
		eng.Run()
		return eng.Now()
	}
	plain := run(false)
	checked := run(true)
	if plain != checked {
		t.Fatalf("checker perturbed the simulation: %d vs %d cycles", plain, checked)
	}
}
