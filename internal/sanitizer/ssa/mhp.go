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
// statically visible:
//
//   - sim.Engine.Go registers a proc body (CPU run loops, workload
//     drivers, daemon collectors);
//   - kernel.Task{Fn: ...} bodies run when a run loop dequeues the task;
//   - smp.Layer.CallMany registers an IPI handler that runs on each
//     target CPU's IRQ dispatch (the send→HandleIPI edge; the matching
//     join is the ack wait);
//   - kernel.CPU.QueueLazyWork / QueueBatchedFlush enqueue deferred
//     closures the owning CPU drains at its next kernel entry;
//   - sched.Collect / sched.Map fan work out over the host worker pool.
//
// mhp assigns every unit the set of execution contexts it is reachable
// from (propagated over the call graph with interface fan-out) and, on
// top of that, a CPU-confinement proof: for receivers and parameters of
// kernel.CPU type, whether the value is provably the CPU whose execution
// context the code is running in ("self"). Both facts feed the lockset
// analyzer's discharge proofs; mhp's own finding is blocking-in-IRQ
// context (a shootdown responder must never sleep, or the ack-timeout
// recovery ladder becomes the common path).
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

type mhpCtx uint8

const (
	cxProc     mhpCtx = 1 << iota // an Engine.Go proc body
	cxTask                        // a kernel.Task body (runs on a run loop)
	cxIRQ                         // an IPI-handler registration (CallMany fn)
	cxDeferred                    // a lazy/batched deferred-flush closure
	cxPool                        // a sched worker-pool closure
)

const kernelPkg = modPath + "/internal/kernel"
const simPkg = modPath + "/internal/sim"
const schedPkg = modPath + "/internal/sched"

type mhpInfo struct {
	ctx  *modCtx
	prog *Program

	// ctxOf holds the context bitsets after propagation.
	ctxOf map[*Func]mhpCtx
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
	// handlerRoots are the units registered as CallMany handlers;
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
		ctxOf:        make(map[*Func]mhpCtx),
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
	m.propagateContexts()
	m.solveSelf()
	m.handlerReach = m.reach(m.handlerRoots)
	ctx.mhp = m
	return m
}

// checkMHP reports blocking calls reachable in IRQ-handler context.
func checkMHP(ctx *modCtx) ([]Finding, []Suppression) {
	m := ctx.buildMHP()
	visited := 0
	m.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
		if f.Decl.Pkg.Path == smpPkg {
			return // trusted base: HandleIPI's own dispatch
		}
		if m.ctxOf[f]&cxIRQ == 0 {
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
	return m.findings, nil
}

// blockingPrimitive classifies callees that park the calling proc.
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
	case isNamed(recv, kernelPkg, "CPU"):
		switch fn.Name() {
		case "WaitRequests", "WaitFirstRequest", "DownRead", "DownWrite", "KernelRun", "UserRun":
			return "kernel.CPU." + fn.Name(), true
		}
	case isNamed(recv, kernelPkg, "Task"):
		if fn.Name() == "Join" {
			return "kernel.Task.Join", true
		}
	case isNamed(recv, smpPkg, "Layer"):
		switch fn.Name() {
		case "WaitAll", "WaitFirst":
			return "smp.Layer." + fn.Name(), true
		}
	case isNamed(recv, simPkg, "Cond"):
		switch fn.Name() {
		case "Wait", "WaitTimeout":
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
func (m *mhpInfo) unitOfFuncValue(f *Func, v *Value) *Func {
	v = chase(v)
	if v == nil {
		return nil
	}
	if v.Kind == VClosure {
		return v.Unit
	}
	var obj types.Object
	switch e := ast.Unparen(exprOf(v)).(type) {
	case *ast.SelectorExpr:
		obj = f.info.ObjectOf(e.Sel)
	case *ast.Ident:
		obj = f.info.ObjectOf(e)
	}
	if fn, ok := obj.(*types.Func); ok {
		return m.prog.ByObj[fn]
	}
	return nil
}

func exprOf(v *Value) ast.Expr {
	if v == nil {
		return nil
	}
	return v.Expr
}

// collectRoots scans every unit for spawn-edge registrations, assigning
// root contexts, self seeds, and method-value escape demotions.
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
		// kernel.Task composite literals: the Fn element is a task body.
		for _, v := range f.Values() {
			if v.Kind == VComposite && isNamed(v.Type, kernelPkg, "Task") {
				if fn := m.taskFnOf(f, v); fn != nil {
					m.ctxOf[fn] |= cxTask
				}
			}
		}
		// Stores to a Task's Fn field register a body too.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore || in.Addr == nil {
					continue
				}
				if fr := chase(in.Addr); fr != nil && fr.Kind == VFieldRead &&
					fr.Obj != nil && fr.Obj.Name() == "Fn" && ownerIs(fr, kernelPkg, "Task") {
					if u := m.unitOfFuncValue(f, in.Val); u != nil {
						m.ctxOf[u] |= cxTask
					}
				}
			}
		}
	})

	// Any CPU-method value that escaped without an Engine.Go blessing
	// demotes its receiver's self fact.
	m.prog.eachUnit(func(f *Func) {
		for _, v := range f.Values() {
			if v.Kind != VOp || blessed[v] {
				continue
			}
			sel, ok := exprOf(v).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			s, ok := f.info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal {
				continue
			}
			fn, _ := s.Obj().(*types.Func)
			if fn == nil {
				continue
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil || !isCPUPtr(sig.Recv().Type()) {
				continue
			}
			if u := m.prog.ByObj[fn]; u != nil {
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
		if u := m.unitOfFuncValue(f, arg); u != nil {
			m.ctxOf[u] |= cxProc
			// Witness 1: a CPU method registered as a proc body runs on
			// its own CPU's execution context.
			if arg != nil && arg.Kind == VOp {
				blessed[arg] = true
			}
		}
	case isCallMany(fn) && len(call.Args) >= 6:
		if u := m.unitOfFuncValue(f, call.Args[3]); u != nil {
			m.ctxOf[u] |= cxIRQ
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
		u := m.unitOfFuncValue(f, call.Args[0])
		if u == nil {
			return
		}
		m.ctxOf[u] |= cxDeferred
		// Witness 4: the deferred closure is drained by the receiver
		// CPU's own kernel entry, so the captured receiver is self
		// inside the closure.
		if ce, ok := exprOf(call).(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr); ok {
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
	case fn.Pkg() != nil && fn.Pkg().Path() == schedPkg &&
		(fn.Name() == "Collect" || fn.Name() == "Map"):
		for _, a := range call.Args {
			if u := m.unitOfFuncValue(f, a); u != nil {
				m.ctxOf[u] |= cxPool
			}
		}
	}
}

// taskFnOf extracts the unit bound to a Task composite's Fn element.
func (m *mhpInfo) taskFnOf(f *Func, comp *Value) *Func {
	cl, ok := exprOf(comp).(*ast.CompositeLit)
	if !ok {
		return nil
	}
	for i, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Fn" || i >= len(comp.Args) {
			continue
		}
		return m.unitOfFuncValue(f, comp.Args[i])
	}
	return nil
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

// propagateContexts floods root contexts over the call graph (and into
// nested literals, which run at most in their parent's contexts unless
// independently registered).
func (m *mhpInfo) propagateContexts() {
	for round := 0; round < 30; round++ {
		changed := false
		m.prog.eachUnit(func(f *Func) {
			bits := m.ctxOf[f]
			// A literal inherits its parent's contexts: unless a spawn
			// edge re-registers it, it runs where it was created.
			for _, lit := range f.Lits {
				if m.ctxOf[lit]|bits != m.ctxOf[lit] {
					m.ctxOf[lit] |= bits
					changed = true
				}
			}
			if bits == 0 {
				return
			}
			for _, b := range f.Blocks {
				for _, call := range b.Calls {
					for _, t := range m.prog.calleesOf(call) {
						cf := m.prog.ByObj[t]
						if cf == nil {
							continue
						}
						if m.ctxOf[cf]|bits != m.ctxOf[cf] {
							m.ctxOf[cf] |= bits
							changed = true
						}
					}
				}
			}
		})
		if !changed {
			return
		}
	}
}

// solveSelf runs the demotion fixpoint for the CPU-confinement facts,
// including the Ctx.CPU witness (3), which itself depends on them.
func (m *mhpInfo) solveSelf() {
	m.ctxCPUSelf = true
	for round := 0; round < 30; round++ {
		changed := false
		// Witness 3: every kernel.Ctx composite must bind a self CPU.
		ctxSelf := m.ctxLiteralsSelf()
		if ctxSelf != m.ctxCPUSelf {
			m.ctxCPUSelf = ctxSelf
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
		if !changed {
			return
		}
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
			cl, isCl := exprOf(v).(*ast.CompositeLit)
			if !isCl {
				ok = false
				continue
			}
			for i, el := range cl.Elts {
				kv, isKV := el.(*ast.KeyValueExpr)
				if !isKV {
					ok = false // positional Ctx literal: not worth proving
					continue
				}
				key, isID := kv.Key.(*ast.Ident)
				if !isID || key.Name != "CPU" || i >= len(v.Args) {
					continue
				}
				if !m.isSelfCPU(f, v.Args[i], nil) {
					ok = false
				}
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
