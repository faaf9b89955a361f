// Package kernel models the per-CPU kernel execution environment the TLB
// shootdown protocol runs in: syscall and interrupt entry/exit (with the
// PTI trampoline surcharge), per-CPU run loops with a minimal pinned-task
// scheduler, lazy-TLB mode, the per-CPU TLB-generation bookkeeping of
// Linux's arch/x86/mm/tlb.c, deferred user-address-space flushes executed
// on return to user mode, and the per-CPU state behind userspace-safe
// batching.
//
// The package provides mechanism; policy — which flushes to issue, defer,
// or skip — is implemented by the shootdown protocol in internal/core,
// reached through the Flusher interface.
package kernel

import (
	"fmt"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/obs"
	"shootdown/internal/pagetable"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
	"shootdown/internal/tlb"
	"shootdown/internal/trace"
)

// Config selects machine-wide kernel behaviour.
type Config struct {
	// PTI enables kernel page-table isolation ("safe mode" in the paper):
	// two PCIDs per process, trampoline surcharges on kernel entry/exit
	// from user mode, and user-space flush obligations on every TLB flush.
	PTI bool
	// NestedPaging marks the machine as a VM with EPT-style nested
	// translation: page walks cost more and the TLB honours the
	// page-fracturing rule (paper §7).
	NestedPaging bool
	// ParavirtFractureHint is the paper's §7 proposed software mitigation:
	// the host tells the guest that page fracturing may happen, so the
	// guest kernel issues one full flush instead of multiple selective
	// flushes that would each escalate to a full flush anyway.
	ParavirtFractureHint bool
	// DisablePCID models a pre-Westmere CPU without process-context
	// identifiers (§2.1): every address-space switch fully flushes the
	// TLB, so context-switch-heavy workloads pay constant refill costs.
	// PTI requires PCIDs to be affordable; DisablePCID with PTI models
	// the Meltdown-mitigation worst case the paper alludes to.
	DisablePCID bool
}

// FullFlushThreshold is the PTE count above which a ranged flush is
// performed as a full flush (Linux's tlb_single_page_flush_ceiling).
const FullFlushThreshold = 33

// DefaultConfig returns the safe-mode (PTI on) baseline configuration.
func DefaultConfig() Config {
	return Config{PTI: true}
}

// Flusher is the TLB-maintenance policy the shootdown protocol implements
// (internal/core). The kernel calls it from the fault path; syscalls call
// it after PTE-changing operations.
type Flusher interface {
	// FlushAfter synchronizes TLBs after as's page tables changed per fr.
	// Called with mmap_sem held by ctx.
	FlushAfter(ctx *Ctx, as *mm.AddressSpace, fr mm.FlushRange)
	// CoWFixup purges the stale local translation after a CoW break
	// (FaultCoW results). It runs in the page-fault handler on the
	// faulting CPU.
	CoWFixup(ctx *Ctx, as *mm.AddressSpace, res mm.FaultResult)
	// BatchingEnabled reports whether userspace-safe batching (§4.2) is
	// active, so eligible system calls mark their batched sections.
	BatchingEnabled() bool
}

// Kernel is the machine: engine, topology, cost model, coherence directory,
// interrupt fabric, SMP layer and one CPU context per logical processor.
type Kernel struct {
	Eng   *sim.Engine
	Topo  mach.Topology
	Cost  *mach.CostModel
	Dir   *cache.Directory
	Bus   *apic.Bus
	SMP   *smp.Layer
	Cfg   Config
	Alloc *pagetable.FrameAlloc

	cpus    []*CPU
	flusher Flusher
	nextMM  mm.ID
	mmLines map[mm.ID]*mmLinePair

	// Trace carries the protocol timeline's events (see internal/trace)
	// except acks, which the SMP layer publishes on SMP.Acked;
	// EnableTrace subscribes a recorder to both.
	Trace obs.Hook[trace.Event]

	// Race, when non-nil, is the attached happens-before checker (see
	// internal/race). All hooks are observational: a race-checked run is
	// cycle-identical to an unchecked one.
	Race *race.Detector

	// Fault, when non-nil, is the attached fault-injection plane (see
	// internal/fault). Unlike the observational hooks it deliberately
	// perturbs timing; a faulted run must still converge to the fault-free
	// final state, which is what the metamorphic tests check.
	Fault *fault.Plane

	// ASCreated fires for every address space created through the kernel
	// (NewAddressSpace and ForkAddressSpace, after the child's page tables
	// are populated); the sanitizer seeds its shadow state and subscribes
	// to the new space's hooks from it. UserReturn fires every time a CPU
	// transitions to user mode, after deferred user flushes ran.
	ASCreated  obs.Hook[*mm.AddressSpace]
	UserReturn obs.Hook[*CPU]
}

// mmLinePair holds the contended cachelines of one mm_struct: the TLB
// generation counter and the active-CPU mask.
type mmLinePair struct {
	gen, cpumask *cache.Line
}

// New builds a kernel for the given machine.
func New(eng *sim.Engine, topo mach.Topology, cost *mach.CostModel, cfg Config) *Kernel {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	dir := cache.New(topo, cost)
	bus := apic.NewBus(eng, topo, cost)
	k := &Kernel{
		Eng: eng, Topo: topo, Cost: cost, Dir: dir, Bus: bus,
		Cfg:   cfg,
		Alloc: pagetable.NewFrameAlloc(),
	}
	k.SMP = smp.New(eng, topo, cost, dir, bus, func(p *sim.Proc, from mach.CPU, reqs []*smp.Request) {
		k.CPU(from).waitRequests(p, reqs)
	})
	k.mmLines = make(map[mm.ID]*mmLinePair)
	k.cpus = make([]*CPU, topo.NumCPUs())
	for i := range k.cpus {
		k.cpus[i] = newCPU(k, mach.CPU(i))
	}
	return k
}

func (k *Kernel) linesOf(as *mm.AddressSpace) *mmLinePair {
	lp, ok := k.mmLines[as.ID]
	if !ok {
		lp = &mmLinePair{
			gen:     k.Dir.NewLine(),
			cpumask: k.Dir.NewLine(),
		}
		k.mmLines[as.ID] = lp
	}
	return lp
}

// MMGenLine returns the cacheline holding as's TLB generation counter.
func (k *Kernel) MMGenLine(as *mm.AddressSpace) *cache.Line { return k.linesOf(as).gen }

// MMCpumaskLine returns the cacheline holding as's active-CPU mask.
func (k *Kernel) MMCpumaskLine(as *mm.AddressSpace) *cache.Line { return k.linesOf(as).cpumask }

// SetFlusher installs the TLB-maintenance policy. Must be called before
// Start.
func (k *Kernel) SetFlusher(f Flusher) { k.flusher = f }

// Flusher returns the installed policy.
func (k *Kernel) Flusher() Flusher {
	if k.flusher == nil {
		panic("kernel: no Flusher installed")
	}
	return k.flusher
}

// CPU returns the context of a logical CPU.
func (k *Kernel) CPU(id mach.CPU) *CPU { return k.cpus[id] }

// CPUs returns all CPU contexts.
func (k *Kernel) CPUs() []*CPU { return k.cpus }

// NewAddressSpace creates a process address space with a fresh mmap_sem.
func (k *Kernel) NewAddressSpace() *mm.AddressSpace {
	k.nextMM++
	sem := mm.NewRWSem(k.Eng, fmt.Sprintf("mmap_sem[%d]", k.nextMM))
	as := mm.NewAddressSpace(k.nextMM, k.Alloc, sem)
	as.EnableRace(k.Race)
	k.ASCreated.Emit(as)
	return as
}

// NewFile creates a simulated file backed by the machine's frame allocator.
func (k *Kernel) NewFile(name string, size uint64) *mm.File {
	return mm.NewFile(name, size, k.Alloc)
}

// ForkAddressSpace clones parent copy-on-write, returning the child, the
// parent's flush obligation (write-protected pages) and the bookkeeping
// volume for cost charging.
func (k *Kernel) ForkAddressSpace(parent *mm.AddressSpace) (*mm.AddressSpace, mm.FlushRange, mm.ForkStats) {
	k.nextMM++
	sem := mm.NewRWSem(k.Eng, fmt.Sprintf("mmap_sem[%d]", k.nextMM))
	child, fr, st := parent.Fork(k.nextMM, sem)
	child.EnableRace(k.Race)
	k.ASCreated.Emit(child)
	return child, fr, st
}

// EnableRace attaches the happens-before checker to the machine: the SMP
// layer reports IPI edges, each CPU its run queue, lazy state, generation
// and deferred-flush queues, and every address space created afterwards
// reports generation, cpumask, semaphore and page-table accesses. Call
// before creating address spaces (typically right after boot).
func (k *Kernel) EnableRace(d *race.Detector) {
	k.Race = d
	k.SMP.SetRaceDetector(d)
	for _, c := range k.cpus {
		c.runqVar = fmt.Sprintf("cpu%d.runq", c.ID)
		c.lazyVar = fmt.Sprintf("cpu%d.lazy", c.ID)
		c.genVar = fmt.Sprintf("cpu%d.tlbgen", c.ID)
		c.lazyqVar = fmt.Sprintf("cpu%d.lazyq", c.ID)
		c.batchedVar = fmt.Sprintf("cpu%d.batched", c.ID)
		c.batchqVar = fmt.Sprintf("cpu%d.batchq", c.ID)
	}
}

// SetFaultPlane attaches the fault-injection plane to the machine (the
// IPI fabric, the SMP ack path, and the kernel's own injection sites all
// consult it) and arms the shootdown recovery path unless the plane's
// spec says NoRetry. Call before Start; nil detaches.
func (k *Kernel) SetFaultPlane(pl *fault.Plane) {
	k.Fault = pl
	k.Bus.SetFaultPlane(pl)
	k.SMP.SetFaultPlane(pl)
}

// EnableTrace subscribes a new protocol-event recorder (see
// internal/trace) to k.Trace, and to SMP.Acked for the responders' ack
// events, and returns it. Call before Run; each call adds a recorder.
func (k *Kernel) EnableTrace() *trace.Recorder {
	r := trace.New(k.Eng)
	k.Trace.Add(r.Observe)
	k.SMP.Acked.Add(func(req *smp.Request) {
		r.Observe(trace.Event{CPU: req.Target(), Kind: trace.Ack, Early: req.AckEarly})
	})
	return r
}

// Start spawns every CPU's run loop. Call once, before Engine.Run.
func (k *Kernel) Start() {
	if k.flusher == nil {
		panic("kernel: Start before SetFlusher")
	}
	for _, c := range k.cpus {
		c.startLoop()
	}
}

// PCIDOf returns the PCID a CPU mode uses for as: under PTI, user-mode
// accesses run on the user PCID and kernel-mode accesses on the kernel
// PCID; without PTI there is a single (kernel) PCID.
func (k *Kernel) PCIDOf(as *mm.AddressSpace, userMode bool) tlb.PCID {
	if k.Cfg.PTI && userMode {
		return as.UserPCID
	}
	return as.KernelPCID
}
