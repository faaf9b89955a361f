package race_test

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

const pg = pagetable.PageSize4K

func boot(t *testing.T, pti bool, cfg core.Config, seed uint64, withRace bool) (*sim.Engine, *kernel.Kernel, *core.Flusher, *race.Detector) {
	t.Helper()
	eng := sim.NewEngine(seed)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = pti
	k := kernel.New(eng, mach.DefaultTopology(), mach.DefaultCosts(), kcfg)
	var d *race.Detector
	if withRace {
		d = race.New(eng)
		k.EnableRace(d)
	}
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.SetFlusher(f)
	k.Start()
	return eng, k, f, d
}

// runMunmapPair runs the canonical §3.2 scenario: one task busily running
// user code on cpu2 (so it is a live IPI responder) while a task on cpu0
// munmaps a region whose page tables are freed.
func runMunmapPair(t *testing.T, cfg core.Config, withRace bool) (*race.Detector, *core.Flusher, sim.Time) {
	t.Helper()
	eng, k, f, d := boot(t, true, cfg, 11, withRace)
	as := k.NewAddressSpace()
	stop := false
	resp := &kernel.Task{Name: "resp", MM: as, Fn: func(ctx *kernel.Ctx) {
		for !stop {
			ctx.UserRun(1000)
		}
	}}
	k.CPU(2).Spawn(resp)
	init := &kernel.Task{Name: "init", MM: as, Fn: func(ctx *kernel.Ctx) {
		ctx.UserRun(5000)
		v, err := syscalls.MMap(ctx, 4*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
		if err != nil {
			t.Error(err)
			stop = true
			return
		}
		if err := ctx.Touch(v.Start, mm.AccessWrite); err != nil {
			t.Error(err)
		}
		if err := syscalls.Munmap(ctx, v.Start, v.Len()); err != nil {
			t.Error(err)
		}
		stop = true
	}}
	k.CPU(0).Spawn(init)
	eng.Run()
	if !init.Done() || !resp.Done() {
		t.Fatal("tasks did not finish")
	}
	return d, f, eng.Now()
}

// TestBrokenEarlyAckReportsExactlyOneRace seeds the §3.2 bug the paper's
// patch guards against — acking before the flush when page tables are
// freed — and asserts the detector reports it exactly once: the
// responder's speculative walk of the freed page-table nodes is unordered
// against the initiator's reclamation.
func TestBrokenEarlyAckReportsExactlyOneRace(t *testing.T) {
	cfg := core.Config{ConcurrentFlush: true, EarlyAck: true, Mutant: fault.MutantEarlyAck}
	d, _, _ := runMunmapPair(t, cfg, true)
	sum := d.Finish()
	if len(sum.Races) != 1 {
		t.Fatalf("want exactly 1 race, got %d (dropped %d):\n%s",
			len(sum.Races), sum.Dropped, sum.Report())
	}
	r := sum.Races[0]
	if r.Var != "mm1.pt-nodes" {
		t.Fatalf("race on unexpected variable %q: %+v", r.Var, r)
	}
	if r.Kind != race.KindReadWrite && r.Kind != race.KindWriteRead {
		t.Fatalf("unexpected race kind %q: %+v", r.Kind, r)
	}
}

// TestLegalEarlyAckIsRaceFree is the control: with the suppression in
// place (the shipped protocol), the same workload is clean — the late ack
// orders the responder's walk before the initiator frees the tables.
func TestLegalEarlyAckIsRaceFree(t *testing.T) {
	cfg := core.Config{ConcurrentFlush: true, EarlyAck: true}
	d, f, _ := runMunmapPair(t, cfg, true)
	sum := d.Finish()
	if !sum.OK() {
		t.Fatalf("legal protocol reported races:\n%s", sum.Report())
	}
	if f.Stats().EarlyAckSuppressed == 0 {
		t.Fatal("scenario did not exercise the early-ack suppression")
	}
	if sum.Stats.Reads == 0 || sum.Stats.Writes == 0 {
		t.Fatalf("pt-nodes accesses not observed: %+v", sum.Stats)
	}
}

// runStress runs three workers sharing one address space across three
// CPUs, mixing faults, madvise, mprotect and a final table-freeing munmap.
func runStress(t *testing.T, pti bool, cfg core.Config, withRace bool) (*race.Detector, *core.Flusher, sim.Time) {
	t.Helper()
	eng, k, f, d := boot(t, pti, cfg, 7, withRace)
	as := k.NewAddressSpace()
	cpus := []mach.CPU{0, 2, 4}
	ready := 0
	var tasks []*kernel.Task
	for i, cpu := range cpus {
		i := i
		task := &kernel.Task{Name: "worker", MM: as, Fn: func(ctx *kernel.Ctx) {
			v, err := syscalls.MMap(ctx, 16*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			ready++
			for ready < len(cpus) {
				ctx.UserRun(500)
			}
			for round := 0; round < 6; round++ {
				for pgi := uint64(0); pgi < 4; pgi++ {
					if err := ctx.Touch(v.Start+pgi*pg, mm.AccessWrite); err != nil {
						t.Error(err)
						return
					}
				}
				switch (round + i) % 3 {
				case 0:
					if err := syscalls.MadviseDontneed(ctx, v.Start, 4*pg); err != nil {
						t.Error(err)
					}
				case 1:
					if err := syscalls.Mprotect(ctx, v.Start, 2*pg, mm.ProtRead); err != nil {
						t.Error(err)
					}
					if err := syscalls.Mprotect(ctx, v.Start, 2*pg, mm.ProtRead|mm.ProtWrite); err != nil {
						t.Error(err)
					}
				case 2:
					ctx.UserRun(2000)
				}
			}
			if err := syscalls.Munmap(ctx, v.Start, 16*pg); err != nil {
				t.Error(err)
			}
		}}
		tasks = append(tasks, task)
		k.CPU(cpu).Spawn(task)
	}
	eng.Run()
	for _, task := range tasks {
		if !task.Done() {
			t.Fatal("worker did not finish")
		}
	}
	return d, f, eng.Now()
}

// TestCumulativeSuiteRaceFree race-checks the paper's cumulative
// optimization ladder plus the full set and the comparative extensions,
// under both PTI modes. The shipped protocol must be clean everywhere.
func TestCumulativeSuiteRaceFree(t *testing.T) {
	for _, pti := range []bool{true, false} {
		configs := core.CumulativeConfigs(pti)
		all := core.All()
		extras := []core.Config{
			all,
			{SerializedIPIs: true},
			{LazyRemote: true},
			{ConcurrentFlush: true, EarlyAck: true, HWMessageIPI: true},
		}
		configs = append(configs, extras...)
		for _, cfg := range configs {
			d, _, _ := runStress(t, pti, cfg, true)
			sum := d.Finish()
			if !sum.OK() {
				t.Errorf("pti=%v cfg=%s: %d race(s):\n%s", pti, cfg, len(sum.Races), sum.Report())
			}
			if sum.Stats.Acquires == 0 || sum.Stats.AtomicRMWs == 0 {
				t.Errorf("pti=%v cfg=%s: instrumentation not exercised: %+v", pti, cfg, sum.Stats)
			}
		}
	}
}

// TestSuiteVariablesAllRegistered is the dynamic half of the race
// cross-validation contract: every variable a full-optimization checked
// run actually creates must resolve to an entry in the instrumented-field
// registry, so the static lockset tier (which proves the registry) can
// never silently miss a location the dynamic model watches.
func TestSuiteVariablesAllRegistered(t *testing.T) {
	d, _, _ := runStress(t, true, core.All(), true)
	names := d.VarNames()
	if len(names) == 0 {
		t.Fatal("checked run created no variables")
	}
	seen := map[string]bool{}
	for _, name := range names {
		f, ok := race.LookupVar(name)
		if !ok {
			t.Errorf("dynamic variable %q has no registry entry", name)
			continue
		}
		seen[f.Key] = true
	}
	// And the run must exercise the core of the registry (the kernel
	// fields every schedule touches), so the test cannot pass vacuously.
	for _, key := range []string{"cpu.runq", "cpu.tlbgen", "mm.tlb_gen", "mm.cpumask", "smp.csq"} {
		if !seen[key] {
			t.Errorf("registry entry %q never instantiated by the suite", key)
		}
	}
}

// TestCheckedRunCycleIdentical asserts the detector is observational: the
// same workload ends at the same simulated cycle with the same protocol
// stats whether or not a detector is attached.
func TestCheckedRunCycleIdentical(t *testing.T) {
	for _, pti := range []bool{true, false} {
		cfg := core.AllGeneral()
		_, fOff, endOff := runStress(t, pti, cfg, false)
		d, fOn, endOn := runStress(t, pti, cfg, true)
		if endOff != endOn {
			t.Fatalf("pti=%v: checked run ended at t=%d, unchecked at t=%d", pti, endOn, endOff)
		}
		if fOn.Stats() != fOff.Stats() {
			t.Fatalf("pti=%v: protocol stats diverged:\nchecked:   %+v\nunchecked: %+v",
				pti, fOn.Stats(), fOff.Stats())
		}
		if sum := d.Finish(); sum.Stats.Acquires == 0 {
			t.Fatalf("pti=%v: detector saw no sync edges: %+v", pti, sum.Stats)
		}
	}
}
