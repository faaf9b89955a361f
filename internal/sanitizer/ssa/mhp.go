package ssa

import (
	"fmt"
	"go/token"
	"go/types"
)

// mhp is the whole-program may-happen-in-parallel analysis. The simulator
// multiplexes logical concurrency over engine procs, and the one spawn
// edge that runs code in another CPU's interrupt context while its
// caller waits is statically visible: smp.Layer.Shoot registers an IPI
// handler that runs on each target CPU's IRQ dispatch (the
// send→HandleIPI edge; the matching join is the ack wait Shoot ends in).
//
// From it mhp derives one fact, handler reach: every unit reachable over
// the call graph (with interface fan-out) from a Shoot handler, the code
// a responder runs while its initiator waits on the ack. The lockset
// analyzer's ack-ordering proofs read it; mhp's own finding is a
// blocking call in handler reach (a shootdown responder must never
// sleep, or the ack-timeout recovery ladder becomes the common path).
//
// Which CPU a responder runs for is not mhp's question: kernel.CPU's
// accessors check it at run time (checkOwner), and lockset requires that
// check at every cpu-confined site.

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

	// handlerReach is everything reachable from the units registered as
	// Shoot handlers.
	handlerReach map[*Func]bool

	findings []Finding
	reported map[string]bool
}

// buildMHP computes (and memoizes on ctx) the whole-program MHP facts.
func (ctx *modCtx) buildMHP() *mhpInfo {
	if ctx.mhp != nil {
		return ctx.mhp
	}
	m := &mhpInfo{ctx: ctx, prog: ctx.program(), reported: make(map[string]bool)}
	m.handlerReach = m.reach(m.handlerRoots())
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

// handlerRoots returns the units Shoot calls register as handlers.
func (m *mhpInfo) handlerRoots() map[*Func]bool {
	roots := make(map[*Func]bool)
	m.prog.eachUnit(func(f *Func) {
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if call.Callee == nil || !isShoot(call.Callee) || len(call.Args) < 6 {
					continue
				}
				if u := m.unitOfFuncValue(call.Args[3]); u != nil {
					roots[u] = true
				}
			}
		}
	})
	return roots
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
