package workload

import (
	"fmt"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sched"
	"shootdown/internal/syscalls"
)

func mustPreset(t *testing.T, name string) fault.Spec {
	t.Helper()
	spec, ok := fault.Preset(name)
	if !ok {
		t.Fatalf("unknown fault preset %q", name)
	}
	return spec
}

// TestScenariosMetamorphic is the tentpole's semantic check: faults may
// change when everything happens, never what the memory ends up being.
// Every scenario's canonical final state under light and heavy fault
// schedules must be byte-identical to the fault-free run, across seeds
// and both PTI modes.
func TestScenariosMetamorphic(t *testing.T) {
	seeds := []uint64{1, 42, 9001}
	specs := []string{"light", "heavy"}
	type cell struct {
		s    Scenario
		mode Mode
		seed uint64
	}
	var cells []cell
	for _, s := range Scenarios() {
		for _, mode := range []Mode{Safe, Unsafe} {
			for _, seed := range seeds {
				cells = append(cells, cell{s, mode, seed})
			}
		}
	}
	type verdict struct {
		name string
		errs []string
	}
	got := sched.Collect(len(cells), func(i int) verdict {
		c := cells[i]
		v := verdict{name: fmt.Sprintf("%s/%s/seed=%d", c.s.Name, c.mode, c.seed)}
		base := RunScenario(Template{}, c.s, c.mode, c.seed)
		// Replay check: the same (seed, spec) must reproduce itself.
		if again := RunScenario(Template{}, c.s, c.mode, c.seed); again != base {
			v.errs = append(v.errs, fmt.Sprintf("fault-free run not reproducible: %s vs %s", base, again))
		}
		for _, name := range specs {
			spec, ok := fault.Preset(name)
			if !ok {
				v.errs = append(v.errs, fmt.Sprintf("unknown preset %q", name))
				continue
			}
			if d := RunScenario(Template{Faults: spec}, c.s, c.mode, c.seed); d != base {
				v.errs = append(v.errs, fmt.Sprintf("digest under %s faults = %s, fault-free = %s", name, d, base))
			}
		}
		return v
	})
	for _, v := range got {
		for _, e := range v.errs {
			t.Errorf("%s: %s", v.name, e)
		}
	}
}

// runOneShootdown drives a booted world through a single-shootdown
// program: a responder occupies CPU 1 in user mode while the initiator on
// CPU 0 maps, touches and madvises one page — exactly one remote flush
// request with exactly one kick. It runs the engine to quiescence and
// reports whether the initiator's madvise completed (under a broken
// no-retry schedule it parks forever instead).
func runOneShootdown(w *World) (initiatorDone bool) {
	as := w.K.NewAddressSpace()
	responder := &kernel.Task{Name: "responder", MM: as, Fn: func(ctx *kernel.Ctx) {
		// Long enough to be in user mode with the AS active when the
		// madvise lands, and through the whole retry/backoff window.
		ctx.UserRun(4_000_000)
	}}
	w.K.CPU(1).Spawn(responder)
	done := false
	initiator := &kernel.Task{Name: "initiator", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(10_000)
		v, err := syscalls.MMap(ctx, pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			panic(err)
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			panic(err)
		}
		if err := syscalls.MadviseDontneed(ctx, v.Start, pg); err != nil {
			panic(err)
		}
		done = true
	}}
	w.K.CPU(0).Spawn(initiator)
	w.Eng.Run()
	return done
}

// TestBrokenNoRetryCaughtExactlyOnce plants the deliberately broken
// recovery configuration — every kick dropped, retry disabled — and
// demands the oracle stack convict it as exactly one violation: the one
// flush request whose IPI was lost and never re-sent.
func TestBrokenNoRetryCaughtExactlyOnce(t *testing.T) {
	spec := mustPreset(t, "broken")
	w := Template{Faults: spec}.boot(Safe, core.All(), 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	if runOneShootdown(w) {
		t.Fatal("initiator completed its shootdown: the broken spec failed to lose the kick")
	}
	if drops := w.Fault.Stats().Drops; drops == 0 {
		t.Fatal("no kick was dropped")
	}
	sum := chk.Finish()
	if len(sum.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1:\n%s", len(sum.Violations), sum.Report())
	}
	if sum.Violations[0].Kind != "unacked-ipi" {
		t.Fatalf("violation kind = %q, want unacked-ipi:\n%s", sum.Violations[0].Kind, sum.Report())
	}
}

// TestRecoveryRedeliversDroppedKick is the positive companion: the same
// total-drop schedule with retry enabled must complete — the initiator
// times out, re-kicks through the drop burst until the forced delivery
// lands, and the sanitizer sees a fully acknowledged protocol.
func TestRecoveryRedeliversDroppedKick(t *testing.T) {
	spec := fault.Spec{DropP: 1}
	w := Template{Faults: spec}.boot(Safe, core.All(), 7)
	defer w.Close()
	chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
	if !runOneShootdown(w) {
		t.Fatal("initiator never completed: recovery failed to redeliver the kick")
	}
	st := w.K.SMP.Stats()
	if st.AckTimeouts == 0 || st.Rekicks == 0 {
		t.Fatalf("recovery path not exercised: %+v", st)
	}
	if st.MaxAckStall == 0 {
		t.Fatalf("MaxAckStall not recorded: %+v", st)
	}
	fs := w.Fault.Stats()
	if fs.Drops == 0 || fs.ForcedDeliveries == 0 {
		t.Fatalf("drop burst bound not exercised: %+v", fs)
	}
	if bus := w.K.Bus.Stats(); bus.IPIsDropped == 0 {
		t.Fatalf("bus never recorded a dropped IPI: %+v", bus)
	}
	if sum := chk.Finish(); !sum.OK() {
		t.Fatalf("recovery left the protocol incoherent:\n%s", sum.Report())
	}
}

// TestScenariosOracleCleanUnderFaults runs every scenario under the heavy
// schedule with the full oracle stack attached — shadow-TLB sanitizer and
// happens-before race detector. Faults must never push the real protocol
// into incoherence or introduce a synchronization hole.
func TestScenariosOracleCleanUnderFaults(t *testing.T) {
	spec := mustPreset(t, "heavy")
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			w := Template{Faults: spec}.boot(Safe, core.All(), 3)
			defer w.Close()
			chk := sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote})
			det := race.New(w.Eng)
			w.K.EnableRace(det)
			w.F.EnableRace()
			s.Run(w)
			if sum := chk.Finish(); !sum.OK() {
				t.Fatalf("sanitizer violations under heavy faults:\n%s", sum.Report())
			}
			if sum := det.Finish(); !sum.OK() {
				t.Fatalf("races under heavy faults:\n%s", sum.Report())
			}
		})
	}
}
