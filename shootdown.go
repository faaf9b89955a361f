// Package shootdown is a simulation-based reproduction of "Don't shoot
// down TLB shootdowns!" (Amit, Tai, Wei — EuroSys 2020).
//
// It models a NUMA multicore machine — per-core TLBs with PCIDs, an x2APIC
// IPI fabric in cluster mode, MESI cacheline coherence costs, x86-style
// page tables, and a Linux-like memory-management kernel — and implements
// the paper's baseline TLB shootdown protocol together with its six
// optimizations (concurrent flushing, early acknowledgement, cacheline
// consolidation, in-context flushing, CoW flush avoidance, and
// userspace-safe batching), each independently toggleable.
//
// The package exposes three levels of use:
//
//   - Machine/Process/Thread: build a simulated machine, run threads that
//     touch memory and issue memory-management system calls, and measure
//     cycles (see examples/quickstart).
//   - Workloads: the paper's benchmark workloads as ready-made runs
//     (madvise microbenchmark, CoW, Sysbench-style, Apache-style,
//     page-fracturing).
//   - Experiments: regenerate every table and figure of the paper's
//     evaluation via RunExperiment (also reachable from cmd/tlbsim).
package shootdown

import (
	"fmt"
	"io"

	"shootdown/internal/core"
	"shootdown/internal/experiments"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/report"
	"shootdown/internal/syscalls"
	"shootdown/internal/trace"
	"shootdown/internal/workload"
)

// Re-exported configuration types.
type (
	// Config toggles the paper's optimizations (zero value = baseline
	// Linux protocol).
	Config = core.Config
	// Mode selects safe (PTI on) or unsafe (mitigations off) operation.
	Mode = workload.Mode
	// Prot is a mapping protection.
	Prot = mm.Prot
	// MapKind classifies mapping backing.
	MapKind = mm.Kind
	// CPU identifies a logical processor.
	CPU = mach.CPU
	// Placement names the microbenchmark initiator/responder placements.
	Placement = mach.Placement
)

// Re-exported constants.
const (
	Safe   = workload.Safe
	Unsafe = workload.Unsafe

	ProtRead  = mm.ProtRead
	ProtWrite = mm.ProtWrite
	ProtExec  = mm.ProtExec

	MapAnon        = mm.Anon
	MapFileShared  = mm.FileShared
	MapFilePrivate = mm.FilePrivate

	PlaceSameCore    = mach.PlaceSameCore
	PlaceSameSocket  = mach.PlaceSameSocket
	PlaceCrossSocket = mach.PlaceCrossSocket

	// PageSize is the base page size of the simulated machine.
	PageSize = pagetable.PageSize4K
)

// Baseline returns the unmodified protocol configuration.
func Baseline() Config { return core.Baseline() }

// AllGeneral enables the four general techniques of §3.
func AllGeneral() Config { return core.AllGeneral() }

// AllOptimizations enables everything in the paper.
func AllOptimizations() Config { return core.All() }

// Option configures NewMachine by writing the machine it boots.
type Option func(*workload.Machine)

// WithMode selects safe/unsafe operation (default Safe).
func WithMode(m Mode) Option { return func(o *workload.Machine) { o.Mode = m } }

// WithConfig selects the protocol optimizations (default baseline).
func WithConfig(c Config) Option { return func(o *workload.Machine) { o.Core = c } }

// WithSeed sets the deterministic simulation seed (default 1).
func WithSeed(s uint64) Option { return func(o *workload.Machine) { o.Seed = s } }

// WithTopology overrides the machine layout (default: 2 sockets x 14
// cores x 2 SMT threads, the paper's testbed).
func WithTopology(sockets, coresPerSocket, threadsPerCore int) Option {
	return func(o *workload.Machine) {
		o.Base.Topo = mach.Topology{Sockets: sockets, CoresPerSocket: coresPerSocket, ThreadsPerCore: threadsPerCore}
	}
}

// Machine is a booted simulated machine.
type Machine struct {
	w *workload.World
}

// NewMachine boots a machine. It returns an error for an invalid topology
// or an unsupported protocol config.
func NewMachine(opts ...Option) (*Machine, error) {
	o := workload.Machine{Base: workload.Template{Topo: mach.DefaultTopology()}, Mode: Safe, Seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	// Boot reads a zero topology as the default machine; here only
	// WithTopology(0, 0, 0) can leave one, and that is invalid.
	if err := o.Base.Topo.Validate(); err != nil {
		return nil, err
	}
	w, err := workload.Boot(o)
	if err != nil {
		return nil, err
	}
	return &Machine{w: w}, nil
}

// NumCPUs returns the logical CPU count.
func (m *Machine) NumCPUs() int { return m.w.K.Topo.NumCPUs() }

// EnableTrace turns on protocol-event recording and returns the recorder.
// Call before spawning threads.
func (m *Machine) EnableTrace() *trace.Recorder { return m.w.K.EnableTrace() }

// Run executes the simulation until no event can make progress (all
// spawned threads finished or are idle).
func (m *Machine) Run() { m.w.Eng.Run() }

// Close shuts the machine down, unwinding the parked per-CPU kernel loops
// so their goroutines exit. Call it after the last Stats/Interrupted read;
// the machine is unusable afterwards.
func (m *Machine) Close() { m.w.Close() }

// Now returns the current virtual time in cycles.
func (m *Machine) Now() uint64 { return uint64(m.w.Eng.Now()) }

// Stats returns protocol counters for the whole machine.
func (m *Machine) Stats() core.Stats { return m.w.F.Stats() }

// Interrupted returns the cycles cpu spent handling shootdown IPIs while
// running a thread.
func (m *Machine) Interrupted(cpu CPU) uint64 { return m.w.K.CPU(cpu).Interrupted }

// NewProcess creates a process (one address space).
func (m *Machine) NewProcess(name string) *Process {
	return &Process{m: m, name: name, as: m.w.K.NewAddressSpace()}
}

// NewFile creates a simulated file for memory-mapped I/O.
func (m *Machine) NewFile(name string, size uint64) *mm.File {
	return m.w.K.NewFile(name, size)
}

// Process is a simulated process: an address space plus its threads.
type Process struct {
	m    *Machine
	name string
	as   *mm.AddressSpace
}

// Thread is a running thread's handle, passed to thread bodies.
type Thread struct {
	proc *Process
	ctx  *kernel.Ctx
}

// Go spawns fn as a thread pinned to cpu. Call Machine.Run to execute.
func (pr *Process) Go(cpu CPU, name string, fn func(*Thread)) *kernel.Task {
	task := &kernel.Task{
		Name: fmt.Sprintf("%s/%s", pr.name, name),
		MM:   pr.as,
		Fn: func(ctx *kernel.Ctx) {
			fn(&Thread{proc: pr, ctx: ctx})
		},
	}
	pr.m.w.K.CPU(cpu).Spawn(task)
	return task
}

// Now returns the current virtual time in cycles.
func (t *Thread) Now() uint64 { return uint64(t.ctx.P.Now()) }

// CPU returns the logical CPU the thread is pinned to.
func (t *Thread) CPU() CPU { return t.ctx.CPU.ID }

// Compute runs d cycles of user computation (interruptible by IPIs).
func (t *Thread) Compute(d uint64) { t.ctx.UserRun(d) }

// SpinUntil spins in user mode until done reports true, checking it every
// quantum cycles and taking IPIs meanwhile. It simulates exactly
// `for !done() { Compute(quantum) }`, but a check that finds nothing to do
// costs the host no coroutine switch. done must read only the program's
// own variables. It panics on a zero quantum.
func (t *Thread) SpinUntil(done func() bool, quantum uint64) { t.ctx.SpinUntil(done, quantum) }

// MMap creates a mapping; file may be nil for MapAnon.
func (t *Thread) MMap(length uint64, prot Prot, kind MapKind, file *mm.File, off uint64) (*mm.VMA, error) {
	return syscalls.MMap(t.ctx, length, prot, kind, file, off)
}

// Munmap removes a mapping (shoots down all TLBs caching it).
func (t *Thread) Munmap(start, length uint64) error {
	return syscalls.Munmap(t.ctx, start, length)
}

// Madvise drops pages with madvise(MADV_DONTNEED) semantics.
func (t *Thread) Madvise(start, length uint64) error {
	return syscalls.MadviseDontneed(t.ctx, start, length)
}

// Mprotect changes a mapping's protection.
func (t *Thread) Mprotect(start, length uint64, prot Prot) error {
	return syscalls.Mprotect(t.ctx, start, length, prot)
}

// Msync writes back dirty pages of the file mapping containing start.
func (t *Thread) Msync(start, length uint64) error {
	return syscalls.Msync(t.ctx, start, length)
}

// Fdatasync writes back every dirty page of file mapped by this process.
func (t *Thread) Fdatasync(file *mm.File) error {
	return syscalls.Fdatasync(t.ctx, file)
}

// Fork clones the calling process's address space copy-on-write and
// returns a new Process whose threads run in the child. Fork
// write-protects the parent's private pages, shooting down every CPU
// running it; subsequent writes on either side break CoW (§4.1).
func (t *Thread) Fork(name string) (*Process, error) {
	child, err := syscalls.Fork(t.ctx)
	if err != nil {
		return nil, err
	}
	return &Process{m: t.proc.m, name: name, as: child}, nil
}

// Read performs a user-mode load at va (faulting pages in on demand).
func (t *Thread) Read(va uint64) error { return t.ctx.Touch(va, mm.AccessRead) }

// Write performs a user-mode store at va (demand faults, CoW breaks,
// dirty tracking).
func (t *Thread) Write(va uint64) error { return t.ctx.Touch(va, mm.AccessWrite) }

// --- Experiments ---

// ExperimentNames lists the reproducible tables/figures (fig5..fig11,
// table3, table4, ablation).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables/figures and writes
// the resulting tables to w. quick shrinks iteration counts.
func RunExperiment(w io.Writer, name string, quick bool, seed uint64) error {
	runner, ok := experiments.Registry()[name]
	if !ok {
		return fmt.Errorf("shootdown: unknown experiment %q (have %v)", name, experiments.Names())
	}
	for _, tab := range runner(experiments.Options{Quick: quick, Seed: seed}) {
		tab.Write(w)
		fmt.Fprintln(w)
	}
	return nil
}

// Tables returns the rendered tables of an experiment without printing.
func Tables(name string, quick bool, seed uint64) ([]*report.Table, error) {
	runner, ok := experiments.Registry()[name]
	if !ok {
		return nil, fmt.Errorf("shootdown: unknown experiment %q", name)
	}
	return runner(experiments.Options{Quick: quick, Seed: seed}), nil
}
