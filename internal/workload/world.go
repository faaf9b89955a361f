// Package workload implements the paper's benchmark workloads on the
// simulated machine: the madvise shootdown microbenchmark (Figures 5-8 and
// Table 3), the copy-on-write microbenchmark (Figure 9), a Sysbench-style
// mmap-write/fdatasync database workload (Figure 10), an Apache-style
// mmap/send/munmap web-serving workload (Figure 11), and the
// page-fracturing dTLB-miss experiment (Table 4).
package workload

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// World bundles a booted simulated machine.
type World struct {
	Eng *sim.Engine
	K   *kernel.Kernel
	F   *core.Flusher
	// Fault is the attached fault plane (nil on an unfaulted world).
	Fault *fault.Plane
}

// Mode selects the paper's two evaluation setups.
type Mode bool

const (
	// Safe is Linux's default: PTI and mitigations on.
	Safe Mode = true
	// Unsafe disables the Meltdown/Spectre mitigations (no PTI).
	Unsafe Mode = false
)

// String names the mode as in the paper.
func (m Mode) String() string {
	if m == Safe {
		return "safe"
	}
	return "unsafe"
}

// bootHook, when non-nil, observes every World that Boot assembles, as
// its last step: the CPU run loops have started and no task has been
// spawned. tlbcheck uses it to attach the coherence sanitizer or the race
// model to every machine an experiment creates, extension probes
// included. Hooks must be observational: they may install observers but
// not advance simulated time.
//
// Writes go through SetBootHook's save/restore discipline, proven
// whole-program by the ssa tier's parallelsafe analyzer.
var bootHook func(*World)

// SetBootHook installs fn as the world boot hook and returns a restore
// function reinstating the previous hook.
func SetBootHook(fn func(*World)) (restore func()) {
	prev := bootHook
	bootHook = fn
	return func() { bootHook = prev }
}

// worldFaults is the fault schedule applied to every world booted through
// NewWorld and the extension probes (the zero Spec injects nothing). It
// parameterizes whole suites — experiments, tlbcheck — without threading
// a spec through every cell constructor.
//
// Writes go through SetFaultSpec's save/restore discipline, proven
// whole-program by the ssa tier's parallelsafe analyzer.
var worldFaults fault.Spec

// SetFaultSpec installs spec as the schedule for every subsequently booted
// world and returns a restore function reinstating the previous one.
func SetFaultSpec(spec fault.Spec) (restore func()) {
	prev := worldFaults
	worldFaults = spec
	return func() { worldFaults = prev }
}

// worldTLBMode overrides the shootdown dispatch tier of every world Boot
// assembles: "" leaves configs as built, "sync" clears the async fabric
// knobs, "async" sets AsyncShootdown — except on configs carrying
// SerializedIPIs or LazyRemote, which model competing dispatch
// disciplines and keep their own tier. The -tlbmode flag of tlbsim and
// tlbcheck lands here.
//
// Writes go through SetTLBMode's save/restore discipline, proven
// whole-program by the ssa tier's parallelsafe analyzer.
var worldTLBMode string

// SetTLBMode installs the package-wide dispatch-tier override ("", "sync"
// or "async") and returns a restore function reinstating the previous one.
func SetTLBMode(mode string) (restore func()) {
	prev := worldTLBMode
	worldTLBMode = mode
	return func() { worldTLBMode = prev }
}

// applyTLBMode rewrites cfg per the package-wide override.
func applyTLBMode(cfg core.Config) core.Config {
	switch worldTLBMode {
	case "sync":
		cfg.AsyncShootdown = false
		cfg.BrokenAckBeforeDrain = false
	case "async":
		if !cfg.SerializedIPIs && !cfg.LazyRemote {
			cfg.AsyncShootdown = true
		}
	}
	return cfg
}

// worldTopology overrides the machine layout of every world booted
// through NewWorld/NewFaultWorld and the extension probes; the zero
// Topology means mach.DefaultTopology(). The -topo flag of tlbsim lands
// here; the scale experiment instead passes each cell's topology
// explicitly (ServerConfig.Topo), so its widths run concurrently.
//
// Writes go through SetTopology's save/restore discipline, proven
// whole-program by the ssa tier's parallelsafe analyzer.
var worldTopology mach.Topology

// SetTopology installs the package-wide machine layout for every
// subsequently booted world and returns a restore function reinstating
// the previous one. The zero Topology restores the default machine.
func SetTopology(topo mach.Topology) (restore func()) {
	prev := worldTopology
	worldTopology = topo
	return func() { worldTopology = prev }
}

// effectiveTopology resolves the package-wide override.
func effectiveTopology() mach.Topology {
	if worldTopology == (mach.Topology{}) {
		return mach.DefaultTopology()
	}
	return worldTopology
}

// Close shuts the world's engine down, unwinding every parked process
// (idle CPU loops, the flusher) so their goroutines exit. Call it after
// the last read of simulation state; the world is unusable afterwards.
func (w *World) Close() { w.Eng.Shutdown() }

// NewWorld boots a machine with the given safety mode and protocol config,
// under the package-wide fault schedule (none by default).
func NewWorld(mode Mode, cfg core.Config, seed uint64) *World {
	return NewFaultWorld(mode, cfg, seed, worldFaults)
}

// NewFaultWorld boots a machine with an explicit fault schedule, bypassing
// the package-wide spec (so cells with different schedules can run
// concurrently).
func NewFaultWorld(mode Mode, cfg core.Config, seed uint64, spec fault.Spec) *World {
	return mustBoot(Machine{Mode: mode, Core: cfg, Seed: seed, Faults: spec, Topo: effectiveTopology()})
}

// Machine is everything that determines a booted machine. Boot is the one
// place a Machine becomes a running World: every simulated machine in the
// repository is assembled there.
type Machine struct {
	Mode Mode
	Core core.Config
	Seed uint64
	// Faults is the fault schedule (the zero Spec injects nothing). The
	// plane is keyed by Seed, so (Seed, Faults) fully determines the
	// machine's behaviour.
	Faults fault.Spec
	// Topo is the machine layout; Boot rejects an invalid one, the zero
	// Topology included. Differently sized machines can boot concurrently
	// under the parallel scheduler, which the package-wide SetTopology
	// override (pool-idle precondition) cannot express.
	Topo mach.Topology
	// Kernel carries the kernel knobs no protocol config implies (nested
	// paging, the §7 fracture hint, PCIDs); its zero value is the default
	// kernel. Boot sets PTI from Mode and the SMP layout
	// (ConsolidatedCachelines, HWMessageIPI) from Core, so the kernel and
	// the protocol cannot disagree on it.
	Kernel kernel.Config
}

// Boot assembles and starts the machine m describes: engine, the
// package-wide dispatch-tier override, kernel, flusher, fault plane, CPU
// run loops, then the boot hook. Tools that attach their own checkers or
// recorders do so on the returned World, before running its engine. Boot
// returns an error for an invalid topology or a protocol config the
// flusher rejects.
func Boot(m Machine) (*World, error) {
	if err := m.Topo.Validate(); err != nil {
		return nil, err
	}
	cfg := applyTLBMode(m.Core)
	kcfg := m.Kernel
	kcfg.PTI = bool(m.Mode)
	kcfg.ConsolidatedCachelines = cfg.CachelineConsolidation
	kcfg.HWMessageIPI = cfg.HWMessageIPI
	eng := sim.NewEngine(m.Seed)
	k := kernel.New(eng, m.Topo, mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		return nil, err
	}
	k.SetFlusher(f)
	w := &World{Eng: eng, K: k, F: f}
	if !m.Faults.Zero() || m.Faults.NoRetry {
		w.Fault = fault.New(m.Seed, m.Faults)
		k.SetFaultPlane(w.Fault)
	}
	k.Start()
	if bootHook != nil {
		bootHook(w)
	}
	return w, nil
}

// mustBoot is Boot for the package's own workloads, whose machines are
// valid by construction: an error there is a bug, so it panics.
func mustBoot(m Machine) *World {
	w, err := Boot(m)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return w
}
