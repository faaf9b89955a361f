package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// mhp is the whole-program may-happen-in-parallel analysis. The simulator
// multiplexes logical concurrency over engine procs, so "what can run in
// parallel with what" is decided by a small set of spawn edges, all
// statically visible. mhp reads three of them:
//
//   - sim.Engine.Go registers a proc body (CPU run loops, workload
//     drivers, daemon collectors);
//   - smp.Layer.Shoot registers an IPI handler that runs on each
//     target CPU's IRQ dispatch (the send→HandleIPI edge; the matching
//     join is the ack wait Shoot ends in);
//   - kernel.CPU.QueueLazyWork / QueueBatchedFlush enqueue deferred
//     closures the owning CPU drains at its next kernel entry.
//
// From them mhp derives two facts. Handler reach is every unit reachable
// over the call graph (with interface fan-out) from a Shoot handler:
// the code a responder runs while its initiator spins on the ack. The
// CPU-confinement proof decides, for receivers and parameters of
// kernel.CPU type, whether the value is provably the CPU whose execution
// context the code is running in ("self"). Both facts feed the lockset
// analyzer's discharge proofs; mhp's own finding is a blocking call in
// handler reach (a shootdown responder must never sleep, or the
// ack-timeout recovery ladder becomes the common path).
//
// The self-CPU proof is an optimistic call-site-closed-world fixpoint:
// every CPU-typed receiver/parameter starts "self" and is demoted by any
// call site that cannot justify it. The positive witnesses are:
//
//  1. a CPU method registered via Engine.Go runs on the proc that *is*
//     that CPU's execution context (the run loop), so its receiver is
//     self; any other escape of a CPU method value demotes it;
//  2. an IPI handler's mach.CPU parameter is the servicing CPU
//     (HandleIPI passes its own ID), so Kernel.CPU(thatID) is self;
//  3. kernel.Ctx.CPU reads are self because the only Ctx composite
//     literal in the module binds CPU to the run loop's receiver, and
//     Task bodies run inline on the dequeuing loop's proc;
//  4. a closure enqueued via rc.QueueLazyWork/rc.QueueBatchedFlush is
//     drained by rc's own kernel entry, so the captured rc is self
//     inside the closure.
//
// Witnesses 1–4 lean on kernel/smp dispatch behavior the dynamic race
// model validates every run (task hand-off and IPI hb edges), which is
// exactly the cross-validation bargain: the dynamic tier certifies the
// trusted base on sampled schedules, the static tier extends it to all.

const kernelPkg = modPath + "/internal/kernel"
const simPkg = modPath + "/internal/sim"
const smpPkg = modPath + "/internal/smp"

// isShoot reports whether fn is smp.Layer.Shoot, the one kick. Its
// arguments 3, 4 and 5 are the handler, the payload and the early-ack
// flag.
func isShoot(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return fn.Name() == "Shoot" && sig != nil && sig.Recv() != nil &&
		isNamed(sig.Recv().Type(), smpPkg, "Layer")
}

type mhpInfo struct {
	ctx  *modCtx
	prog *Program

	// selfRecv / selfParam / selfIDParam are the CPU-confinement facts:
	// receiver (or *kernel.CPU / mach.CPU parameter i) is provably the
	// executing CPU.
	selfRecv    map[*Func]bool
	selfParam   map[*Func]map[int]bool
	selfIDParam map[*Func]map[int]bool
	// selfFree marks captured variables proven self inside a unit
	// (witness 4: the queue-deferral receiver).
	selfFree map[*Func]map[*types.Var]bool
	// ctxCPUSelf is witness 3: every kernel.Ctx literal binds a self CPU.
	ctxCPUSelf bool
	// handlerRoots are the units registered as Shoot handlers;
	// handlerReach is everything reachable from them.
	handlerRoots map[*Func]bool
	handlerReach map[*Func]bool

	findings []Finding
	reported map[string]bool
}

// buildMHP computes (and memoizes on ctx) the whole-program MHP facts.
func (ctx *modCtx) buildMHP() *mhpInfo {
	if ctx.mhp != nil {
		return ctx.mhp
	}
	m := &mhpInfo{
		ctx: ctx, prog: ctx.program(),
		selfRecv:     make(map[*Func]bool),
		selfParam:    make(map[*Func]map[int]bool),
		selfIDParam:  make(map[*Func]map[int]bool),
		selfFree:     make(map[*Func]map[*types.Var]bool),
		handlerRoots: make(map[*Func]bool),
		handlerReach: make(map[*Func]bool),
		reported:     make(map[string]bool),
	}
	m.initOptimistic()
	m.collectRoots()
	m.solveSelf()
	m.handlerReach = m.reach(m.handlerRoots)
	ctx.mhp = m
	return m
}

// checkMHP reports blocking calls in handler reach.
func checkMHP(ctx *modCtx) []Finding {
	m := ctx.buildMHP()
	visited := 0
	m.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
		if f.Decl.Pkg.Path == smpPkg {
			return // trusted base: HandleIPI's own dispatch
		}
		if !m.handlerReach[f] {
			return
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if name, ok := blockingPrimitive(call.Callee); ok {
					m.report(f, call.Pos, "mhp",
						"blocking call %s in IPI-handler context: a shootdown responder must not sleep while servicing the IRQ (the initiator is spinning on this ack)", name)
				}
			}
		}
	})
	ctx.visited["mhp"] = visited
	sortFindings(m.findings)
	return m.findings
}

// blockingPrimitive classifies callees that park the calling proc.
// smp.Layer.Shoot parks in the ack wait it calls through a func field,
// an edge the call graph does not follow, so it is listed itself.
func blockingPrimitive(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	switch {
	case isShoot(fn):
		return "smp.Layer.Shoot", true
	case isNamed(recv, kernelPkg, "CPU"):
		switch fn.Name() {
		case "DownRead", "DownWrite", "KernelRun", "UserRun", "SpinUntil":
			return "kernel.CPU." + fn.Name(), true
		}
	case isNamed(recv, kernelPkg, "Task"):
		if fn.Name() == "Join" {
			return "kernel.Task.Join", true
		}
	case isNamed(recv, simPkg, "Cond"):
		switch fn.Name() {
		case "Wait", "WaitTimeout", "WaitPoll":
			return "sim.Cond." + fn.Name(), true
		}
	}
	return "", false
}

// initOptimistic seeds every CPU-typed receiver/parameter as self.
func (m *mhpInfo) initOptimistic() {
	m.prog.eachUnit(func(f *Func) {
		if f.Sig == nil {
			return
		}
		if r := f.Sig.Recv(); r != nil && isCPUPtr(r.Type()) {
			m.selfRecv[f] = true
		}
		for i := 0; i < f.Sig.Params().Len(); i++ {
			pt := f.Sig.Params().At(i).Type()
			switch {
			case isCPUPtr(pt):
				if m.selfParam[f] == nil {
					m.selfParam[f] = make(map[int]bool)
				}
				m.selfParam[f][i] = true
			case isCPUID(pt):
				if m.selfIDParam[f] == nil {
					m.selfIDParam[f] = make(map[int]bool)
				}
				m.selfIDParam[f][i] = true
			}
		}
	})
}

func isCPUPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamed(p.Elem(), kernelPkg, "CPU")
}

func isCPUID(t types.Type) bool {
	return isNamed(t, modPath+"/internal/mach", "CPU")
}

// unitOfFuncValue resolves a value used in function position (closure,
// method value, or function identifier) to its unit, if it is one the
// module declares.
func (m *mhpInfo) unitOfFuncValue(v *Value) *Func {
	switch v = chase(v); {
	case v == nil:
		return nil
	case v.Kind == VClosure:
		return v.Unit
	}
	return m.prog.ByObj[v.Func]
}

// collectRoots scans every unit for spawn-edge registrations, collecting
// handler roots, self seeds, and method-value escape demotions.
func (m *mhpInfo) collectRoots() {
	// blessed marks CPU-method values consumed by an Engine.Go
	// registration (witness 1); any other method-value escape of a CPU
	// method demotes its receiver, since the eventual call is invisible.
	blessed := make(map[*Value]bool)

	m.prog.eachUnit(func(f *Func) {
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				m.rootsFromCall(f, call, blessed)
			}
		}
	})

	// Any CPU-method value that escaped without an Engine.Go blessing
	// demotes its receiver's self fact.
	m.prog.eachUnit(func(f *Func) {
		for _, v := range f.Values() {
			if v.Kind != VOp || v.Func == nil || blessed[v] {
				continue
			}
			sig, _ := v.Func.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil || !isCPUPtr(sig.Recv().Type()) {
				continue
			}
			if u := m.prog.ByObj[v.Func]; u != nil {
				m.selfRecv[u] = false
			}
		}
	})
}

// rootsFromCall handles one call site's spawn-edge registrations.
func (m *mhpInfo) rootsFromCall(f *Func, call *Value, blessed map[*Value]bool) {
	fn := call.Callee
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	recv := types.Type(nil)
	if sig != nil && sig.Recv() != nil {
		recv = sig.Recv().Type()
	}
	switch {
	case recv != nil && isNamed(recv, simPkg, "Engine") && fn.Name() == "Go" && len(call.Args) >= 2:
		arg := chase(call.Args[1])
		// Witness 1: a CPU method registered as a proc body runs on its
		// own CPU's execution context.
		if arg != nil && arg.Kind == VOp {
			blessed[arg] = true
		}
	case isShoot(fn) && len(call.Args) >= 6:
		if u := m.unitOfFuncValue(call.Args[3]); u != nil {
			m.handlerRoots[u] = true
			// Witness 2: the handler's mach.CPU parameter is the
			// servicing CPU's ID. This is a seed, not a grant: a direct
			// call of the same function with a non-self ID demotes it.
			if u.Sig != nil && u.Sig.Params().Len() >= 2 && isCPUID(u.Sig.Params().At(1).Type()) {
				if m.selfIDParam[u] == nil {
					m.selfIDParam[u] = make(map[int]bool)
				}
				m.selfIDParam[u][1] = true
			}
		}
	case recv != nil && isNamed(recv, kernelPkg, "CPU") &&
		(fn.Name() == "QueueLazyWork" || fn.Name() == "QueueBatchedFlush") && len(call.Args) >= 1:
		u := m.unitOfFuncValue(call.Args[0])
		if u == nil {
			return
		}
		// Witness 4: the deferred closure is drained by the receiver
		// CPU's own kernel entry, so the captured receiver is self
		// inside the closure. The closure captures the receiver's
		// variable, which SSA folds away into whatever value the
		// variable holds, so the variable is read from the call as
		// written.
		if sel, ok := ast.Unparen(call.Call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj, ok := f.info.ObjectOf(id).(*types.Var); ok && isCPUPtr(obj.Type()) {
					if m.selfFree[u] == nil {
						m.selfFree[u] = make(map[*types.Var]bool)
					}
					m.selfFree[u][obj] = true
				}
			}
		}
	}
}

func ownerIs(fr *Value, pkgPath, structName string) bool {
	if fr.Obj == nil || fr.Obj.Pkg() == nil || fr.Obj.Pkg().Path() != pkgPath {
		return false
	}
	base := chase(fr.Base)
	if base == nil || base.Type == nil {
		return false
	}
	t := base.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamed(t, pkgPath, structName)
}

// solveSelf runs the demotion fixpoint for the CPU-confinement facts,
// including the Ctx.CPU witness (3), which itself depends on them, until
// nothing changes; facts only demote from true to false, so the rounds
// stop.
func (m *mhpInfo) solveSelf() {
	m.ctxCPUSelf = true
	for changed := true; changed; {
		changed = false
		// Witness 3: every kernel.Ctx composite must bind a self CPU.
		if m.ctxCPUSelf && !m.ctxLiteralsSelf() {
			m.ctxCPUSelf = false
			changed = true
		}
		m.prog.eachUnit(func(f *Func) {
			for _, b := range f.Blocks {
				for _, call := range b.Calls {
					for _, t := range m.prog.calleesOf(call) {
						cf := m.prog.ByObj[t]
						if cf == nil || cf.Sig == nil {
							continue
						}
						if r := cf.Sig.Recv(); r != nil && isCPUPtr(r.Type()) && m.selfRecv[cf] {
							if !m.isSelfCPU(f, call.Base, nil) {
								m.selfRecv[cf] = false
								changed = true
							}
						}
						for i := 0; i < cf.Sig.Params().Len() && i < len(call.Args); i++ {
							pt := cf.Sig.Params().At(i).Type()
							switch {
							case isCPUPtr(pt) && m.selfParam[cf][i]:
								if !m.isSelfCPU(f, call.Args[i], nil) {
									m.selfParam[cf][i] = false
									changed = true
								}
							case isCPUID(pt) && m.selfIDParam[cf][i]:
								if !m.isSelfCPUID(f, call.Args[i], nil) {
									m.selfIDParam[cf][i] = false
									changed = true
								}
							}
						}
					}
				}
			}
		})
	}
}

// ctxLiteralsSelf checks witness 3 over every Ctx literal and Ctx.CPU
// store in the module.
func (m *mhpInfo) ctxLiteralsSelf() bool {
	ok, found := true, false
	m.prog.eachUnit(func(f *Func) {
		for _, v := range f.Values() {
			if v.Kind != VComposite || !isNamed(v.Type, kernelPkg, "Ctx") {
				continue
			}
			found = true
			if c := v.field("CPU"); c != nil && !m.isSelfCPU(f, c, nil) {
				ok = false
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore || in.Addr == nil {
					continue
				}
				if fr := chase(in.Addr); fr != nil && fr.Kind == VFieldRead &&
					fr.Obj != nil && fr.Obj.Name() == "CPU" && ownerIs(fr, kernelPkg, "Ctx") {
					if !m.isSelfCPU(f, in.Val, nil) {
						ok = false
					}
				}
			}
		}
	})
	return ok && found
}

// isSelfCPU reports whether v is provably the executing CPU in unit f.
func (m *mhpInfo) isSelfCPU(f *Func, v *Value, visiting map[*Value]bool) bool {
	v = chase(v)
	if v == nil {
		return false
	}
	if visiting[v] {
		return true // optimistic on phi cycles; demotion re-runs to fixpoint
	}
	switch v.Kind {
	case VRecv:
		return m.selfRecv[f]
	case VParam:
		return m.selfParam[f][v.ResIdx]
	case VFree:
		return v.Obj != nil && m.selfFree[f][v.Obj]
	case VFieldRead:
		// Witness 3: ctx.CPU.
		return m.ctxCPUSelf && v.Obj != nil && v.Obj.Name() == "CPU" && ownerIs(v, kernelPkg, "Ctx")
	case VCall:
		// Kernel.CPU(selfID) is self (witness 2 composition).
		if v.Callee != nil && v.Callee.Name() == "CPU" {
			sig, _ := v.Callee.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && isNamed(sig.Recv().Type(), kernelPkg, "Kernel") && len(v.Args) >= 1 {
				if visiting == nil {
					visiting = make(map[*Value]bool)
				}
				visiting[v] = true
				return m.isSelfCPUID(f, v.Args[0], visiting)
			}
		}
		return false
	case VPhi:
		if visiting == nil {
			visiting = make(map[*Value]bool)
		}
		visiting[v] = true
		for _, a := range v.Args {
			if !m.isSelfCPU(f, a, visiting) {
				return false
			}
		}
		return true
	}
	return false
}

// isSelfCPUID reports whether v is provably the executing CPU's ID.
func (m *mhpInfo) isSelfCPUID(f *Func, v *Value, visiting map[*Value]bool) bool {
	v = chase(v)
	if v == nil {
		return false
	}
	if visiting[v] {
		return true
	}
	switch v.Kind {
	case VParam:
		return m.selfIDParam[f][v.ResIdx]
	case VFieldRead:
		if v.Obj != nil && v.Obj.Name() == "ID" && ownerIs(v, kernelPkg, "CPU") {
			if visiting == nil {
				visiting = make(map[*Value]bool)
			}
			visiting[v] = true
			return m.isSelfCPU(f, v.Base, visiting)
		}
		return false
	case VPhi:
		if visiting == nil {
			visiting = make(map[*Value]bool)
		}
		visiting[v] = true
		for _, a := range v.Args {
			if !m.isSelfCPUID(f, a, visiting) {
				return false
			}
		}
		return true
	}
	return false
}

// reach BFSes the call graph (and literal nesting) from roots.
func (m *mhpInfo) reach(roots map[*Func]bool) map[*Func]bool {
	out := make(map[*Func]bool, len(roots))
	var work []*Func
	for f := range roots {
		out[f] = true
		work = append(work, f)
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		for _, lit := range f.Lits {
			if !out[lit] {
				out[lit] = true
				work = append(work, lit)
			}
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				for _, t := range m.prog.calleesOf(call) {
					cf := m.prog.ByObj[t]
					if cf != nil && !out[cf] {
						out[cf] = true
						work = append(work, cf)
					}
				}
			}
		}
	}
	return out
}

func (m *mhpInfo) report(f *Func, pos token.Pos, analyzer, format string, args ...any) {
	file, line := m.ctx.posLine(f.Decl, pos)
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%s", file, line, msg)
	if m.reported[key] {
		return
	}
	m.reported[key] = true
	m.findings = append(m.findings, Finding{
		File: file, Line: line, Analyzer: analyzer, Msg: msg,
	})
}
