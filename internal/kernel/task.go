package kernel

import (
	"shootdown/internal/mm"
	"shootdown/internal/race"
	"shootdown/internal/sim"
	"shootdown/internal/trace"
)

// Task is a user thread pinned to a CPU.
type Task struct {
	// Name identifies the task in traces.
	Name string
	// MM is the task's address space; threads of one process share it.
	MM *mm.AddressSpace
	// Fn is the task body, running in the CPU's context.
	Fn func(*Ctx)

	cpu      *CPU
	done     bool
	doneCond *sim.Cond
	// hb carries the spawn->body and body->join happens-before edges when
	// a race detector is attached (see CPU.Spawn).
	hb *race.Sync
}

// Done reports whether the task body returned.
func (t *Task) Done() bool { return t.done }

// Join blocks p until the task completes.
func (t *Task) Join(p *sim.Proc) {
	for !t.done {
		t.doneCond.Wait(p)
	}
	if t.cpu != nil {
		// Everything the task body did happens-before Join's return.
		t.cpu.K.Race.Acquire(t.hb)
	}
}

// Ctx is the execution context handed to a task body: the kernel, the CPU
// it runs on, and its process.
type Ctx struct {
	K    *Kernel
	CPU  *CPU
	P    *sim.Proc
	Task *Task
}

// MM returns the task's address space.
func (ctx *Ctx) MM() *mm.AddressSpace { return ctx.Task.MM }

// EnterSyscall crosses into the kernel, charging the entry cost (plus the
// PTI trampoline in safe mode).
func (ctx *Ctx) EnterSyscall() {
	c := ctx.CPU
	if !c.inUser {
		panic("kernel: EnterSyscall while already in kernel")
	}
	c.inUser = false
	c.K.chargeEntry(ctx.P)
	c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.SyscallEnter})
	// Any kernel entry is a LATR sweep point (lazy-shootdown extension).
	c.DrainLazyWork(ctx.P)
}

// ExitSyscall returns to user mode: pending deferred user-PCID flushes are
// executed first (the in-context flush point, §3.4), then the exit path
// (plus PTI trampoline) is charged.
func (ctx *Ctx) ExitSyscall() {
	c := ctx.CPU
	if c.inUser {
		panic("kernel: ExitSyscall while in user mode")
	}
	p := ctx.P
	p.Delay(c.K.Cost.SyscallExit)
	if c.K.Cfg.PTI {
		c.runDeferredUserFlushes(p)
		p.Delay(c.K.Cost.PTITrampoline)
	}
	c.enterUser()
	c.K.Trace.Emit(trace.Event{CPU: c.ID, Kind: trace.SyscallExit})
	// Back in user mode: deliver anything that arrived during the exit.
	c.ServiceIRQs(p)
}

// UserRun executes d cycles of user computation (see CPU.UserRun).
func (ctx *Ctx) UserRun(d uint64) { ctx.CPU.UserRun(ctx.P, d) }

// SpinUntil spins in user mode until done reports true, polling it every
// quantum cycles (see CPU.SpinUntil).
func (ctx *Ctx) SpinUntil(done func() bool, quantum uint64) {
	ctx.CPU.SpinUntil(ctx.P, done, quantum)
}

func (k *Kernel) chargeEntry(p *sim.Proc) {
	p.Delay(k.Cost.SyscallEntry)
	if k.Cfg.PTI {
		p.Delay(k.Cost.PTITrampoline)
	}
	// Fault plane: kernel entry is the preemption point — a daemon storm
	// or sibling thread steals the CPU here before the syscall body runs.
	if d := k.Fault.PreemptDelay(); d > 0 {
		p.Delay(d)
	}
}
