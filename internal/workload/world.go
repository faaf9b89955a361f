// Package workload implements the paper's benchmark workloads on the
// simulated machine: the madvise shootdown microbenchmark (Figures 5-8 and
// Table 3), the copy-on-write microbenchmark (Figure 9), a Sysbench-style
// mmap-write/fdatasync database workload (Figure 10), an Apache-style
// mmap/send/munmap web-serving workload (Figure 11), and the
// page-fracturing dTLB-miss experiment (Table 4).
package workload

import (
	"errors"
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
// It is the package's one mutable global. Writes go through SetBootHook's
// save/restore discipline, proven whole-program by the ssa tier's
// parallelsafe analyzer.
var bootHook func(*World)

// SetBootHook installs fn as the world boot hook and returns a restore
// function reinstating the previous hook.
func SetBootHook(fn func(*World)) (restore func()) {
	prev := bootHook
	bootHook = fn
	return func() { bootHook = prev }
}

// Template is the machine a whole suite shares: what the -faults, -topo
// and -tlbmode flags of tlbsim and tlbcheck describe. Every runner boots
// its config's template with the run's own mode, protocol config, seed
// and kernel knobs, so differently shaped suites can run side by side.
// The zero Template is the paper's testbed, unfaulted, with every config
// keeping its own dispatch tier.
type Template struct {
	// Faults is the fault schedule (the zero Spec injects nothing). The
	// plane is keyed by the run's seed, so (Seed, Faults) fully
	// determines the machine's behaviour.
	Faults fault.Spec
	// Topo is the machine layout; the zero Topology is the paper's
	// 56-CPU testbed, mach.DefaultTopology().
	Topo mach.Topology
	// TLBMode overrides the shootdown dispatch tier: "" leaves each
	// config as built, "sync" clears the async fabric knobs, "async" sets
	// AsyncShootdown — except on configs carrying SerializedIPIs or
	// LazyRemote, which model competing dispatch disciplines and keep
	// their own tier. CheckTLBMode rejects any other value.
	TLBMode string
}

// CheckTLBMode reports an error for a dispatch-tier override other than
// "", "sync" or "async". Boot and the -tlbmode flags share it.
func CheckTLBMode(mode string) error {
	switch mode {
	case "", "sync", "async":
		return nil
	}
	return errors.New("-tlbmode must be sync or async")
}

// boot boots t with one run's mode, protocol config and seed.
func (t Template) boot(mode Mode, cfg core.Config, seed uint64) *World {
	return MustBoot(Machine{Base: t, Mode: mode, Core: cfg, Seed: seed})
}

// Close shuts the world's engine down, unwinding every parked process
// (idle CPU loops, the flusher) so their goroutines exit. Call it after
// the last read of simulation state; the world is unusable afterwards.
func (w *World) Close() { w.Eng.Shutdown() }

// NewWorld boots the zero Template, the paper's unfaulted testbed, with
// the given safety mode, protocol config and seed.
func NewWorld(mode Mode, cfg core.Config, seed uint64) *World {
	return Template{}.boot(mode, cfg, seed)
}

// Machine is everything that determines a booted machine. Boot is the one
// place a Machine becomes a running World: every simulated machine in the
// repository is assembled there.
type Machine struct {
	// Base is the suite-wide part: fault schedule, topology and
	// dispatch-tier override.
	Base Template
	Mode Mode
	Core core.Config
	Seed uint64
	// Kernel carries the kernel knobs no protocol config implies (nested
	// paging, the §7 fracture hint, PCIDs); its zero value is the default
	// kernel. Boot sets PTI from Mode and the SMP layout
	// (ConsolidatedCachelines, HWMessageIPI) from Core, so the kernel and
	// the protocol cannot disagree on it.
	Kernel kernel.Config
}

// Boot assembles and starts the machine m describes: engine, kernel,
// flusher under the template's tier override, fault plane, CPU run loops,
// then the boot hook. Tools that attach their own checkers or recorders
// do so on the returned World, before running its engine. Boot returns an
// error for an invalid topology or tier override, or a protocol config
// the flusher rejects.
func Boot(m Machine) (*World, error) {
	topo := m.Base.Topo
	if topo == (mach.Topology{}) {
		topo = mach.DefaultTopology()
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := CheckTLBMode(m.Base.TLBMode); err != nil {
		return nil, err
	}
	cfg := m.Core
	switch m.Base.TLBMode {
	case "sync":
		cfg.AsyncShootdown = false
		cfg.BrokenAckBeforeDrain = false
	case "async":
		if !cfg.SerializedIPIs && !cfg.LazyRemote {
			cfg.AsyncShootdown = true
		}
	}
	kcfg := m.Kernel
	kcfg.PTI = bool(m.Mode)
	kcfg.ConsolidatedCachelines = cfg.CachelineConsolidation
	kcfg.HWMessageIPI = cfg.HWMessageIPI
	eng := sim.NewEngine(m.Seed)
	k := kernel.New(eng, topo, mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		return nil, err
	}
	k.SetFlusher(f)
	w := &World{Eng: eng, K: k, F: f}
	if faults := m.Base.Faults; !faults.Zero() || faults.NoRetry {
		w.Fault = fault.New(m.Seed, faults)
		k.SetFaultPlane(w.Fault)
	}
	k.Start()
	if bootHook != nil {
		bootHook(w)
	}
	return w, nil
}

// MustBoot is Boot for machines valid by construction, such as the
// package's own workloads and the experiment cells: an error there is a
// bug, so it panics.
func MustBoot(m Machine) *World {
	w, err := Boot(m)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return w
}
