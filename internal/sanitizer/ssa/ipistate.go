package ssa

import (
	"fmt"
	"go/token"
	"go/types"
)

// ipistate is the typestate checker for the shootdown request lifecycle.
// Every smp.Request (and request slice) must follow the DFA
//
//	new → kicked → waited → discharged
//
// on every path through a protocol user:
//
//   - wait-before-kick: waiting on a hand-built request (composite literal
//     or zero value) that was never kicked through CallMany;
//   - double-discharge: waiting again on a request set that is already
//     discharged on every incoming path;
//   - leak: a request set born from CallMany that reaches a normal exit
//     still in flight — neither discharged, returned, nor enqueued.
//
// Deferred-discharge edges transfer the obligation instead of requiring a
// local wait: returning the requests, storing them into a struct field or
// global (enqueue-transfer), or sending them on a channel all hand the
// discharge duty to the consumer.
//
// The ack-timeout recovery (rekick, degrade-to-full) is not an edge here:
// only smp can take it, inside the wait (smp.Layer.AckTimedOut), so the
// compiler rejects a recovery step out of order.
//
// Package smp itself is exempt: it implements the Request internals (ack
// delivery, queue drain, recovery), so its bodies are the trusted base the
// DFA is defined against — the same stance lockorder takes for RWSem
// primitives.
//
// Panic paths release obligations: a crashing run owes no acks.

const smpPkg = modPath + "/internal/smp"

// isRequestType reports whether t carries smp.Request values (directly or
// through pointers, slices and arrays).
func isRequestType(t types.Type) bool {
	switch v := t.(type) {
	case *types.Pointer:
		return isRequestType(v.Elem())
	case *types.Slice:
		return isRequestType(v.Elem())
	case *types.Array:
		return isRequestType(v.Elem())
	case *types.Named:
		return isNamed(v, smpPkg, "Request")
	}
	return false
}

// ipiBits is the per-origin abstract state. Live/unkicked/moved are
// may-bits (joined with OR); discharged is a must-bit (joined with AND),
// so the double-discharge check only fires when it holds on every
// incoming path.
type ipiBits uint8

const (
	ipiLive ipiBits = 1 << iota
	ipiDisch
	ipiUnkicked
	ipiMoved
)

type ipiState map[*Value]ipiBits

func (s ipiState) clone() ipiState {
	c := make(ipiState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinIPI merges b into a (a is mutated): may-bits OR, must-bits AND.
// Origins absent from one side keep the other side's state unchanged
// (absent means "not born on that path").
func joinIPI(a, b ipiState) ipiState {
	for o, bb := range b {
		ab, ok := a[o]
		if !ok {
			a[o] = bb
			continue
		}
		may := (ab | bb) & (ipiLive | ipiUnkicked | ipiMoved)
		must := ab & bb & ipiDisch
		a[o] = may | must
	}
	return a
}

func equalIPI(a, b ipiState) bool {
	if len(a) != len(b) {
		return false
	}
	for o, v := range a {
		if b[o] != v {
			return false
		}
	}
	return true
}

// ipiEffect classifies what a callee does to a request-typed argument.
type ipiEffect uint8

const (
	effNeutral ipiEffect = iota
	// effDischarge discharges without being a wait site itself (wrappers
	// proven by the fixpoint).
	effDischarge
	// effWait discharges the argument and checks the wait edges.
	effWait
)

// ipiSummary maps request-typed parameter index → effect for one callee.
type ipiSummary map[int]ipiEffect

type ipiAnalysis struct {
	ctx  *modCtx
	prog *Program
	// summaries classify module callees' request params; seeded with the
	// protocol primitives, grown over wrappers by fixpoint.
	summaries map[*types.Func]ipiSummary
	// returnsLive marks module functions whose result carries freshly
	// kicked requests (CallMany wrappers).
	returnsLive map[*types.Func]bool
	findings    []Finding
	reported    map[string]bool
	origins     map[*Value]map[*Value]bool
}

func checkIPIState(ctx *modCtx) []Finding {
	prog := ctx.program()
	ia := &ipiAnalysis{
		ctx: ctx, prog: prog,
		summaries:   make(map[*types.Func]ipiSummary),
		returnsLive: make(map[*types.Func]bool),
		reported:    make(map[string]bool),
		origins:     make(map[*Value]map[*Value]bool),
	}
	ia.seedPrimitives()
	ia.fixpoint()
	visited := 0
	prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
		if f.Decl.Pkg.Path == smpPkg {
			return
		}
		ia.analyzeUnit(f)
	})
	ctx.visited["ipistate"] = visited
	sortFindings(ia.findings)
	return ia.findings
}

// seedPrimitives installs the protocol root summary: the one ack wait,
// kernel.CPU.WaitRequests, discharges its request argument.
func (ia *ipiAnalysis) seedPrimitives() {
	for _, f := range ia.prog.Funcs {
		fn := f.Decl.Obj
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && fn.Name() == "WaitRequests" &&
			isNamed(sig.Recv().Type(), modPath+"/internal/kernel", "CPU") {
			ia.summaries[fn] = ipiSummary{1: effWait}
		}
	}
}

// fixpoint classifies wrapper functions until nothing changes: a
// request-typed parameter whose origins reach a discharging call is itself
// a discharger, and a function returning freshly kicked requests is a
// CallMany wrapper. Both only ever upgrade, so the rounds stop. A cheap
// may-analysis: summaries only prevent leak and double-discharge false
// positives; the path checks run per-unit.
func (ia *ipiAnalysis) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, f := range ia.prog.Funcs {
			if f.Decl.Pkg.Path == smpPkg {
				continue
			}
			fn := f.Decl.Obj
			if ia.classifyParams(f, fn) {
				changed = true
			}
			if !ia.returnsLive[fn] && ia.unitReturnsLive(f) {
				ia.returnsLive[fn] = true
				changed = true
			}
		}
	}
}

// classifyParams marks request params of f that flow into a discharge.
func (ia *ipiAnalysis) classifyParams(f *Func, fn *types.Func) bool {
	if f.Sig == nil {
		return false
	}
	changed := false
	for _, b := range f.Blocks {
		for _, call := range b.Calls {
			sum := ia.summaryFor(call)
			for idx, eff := range sum {
				if eff != effWait && eff != effDischarge {
					continue
				}
				if idx >= len(call.Args) {
					continue
				}
				for o := range ia.originsOf(call.Args[idx]) {
					if o.Kind != VParam {
						continue
					}
					pi := o.ResIdx
					if pi >= f.Sig.Params().Len() || !isRequestType(f.Sig.Params().At(pi).Type()) {
						continue
					}
					if ia.summaries[fn] == nil {
						ia.summaries[fn] = make(ipiSummary)
					}
					if ia.summaries[fn][pi] == effNeutral {
						ia.summaries[fn][pi] = effDischarge
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// unitReturnsLive reports whether f returns requests born inside it.
func (ia *ipiAnalysis) unitReturnsLive(f *Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IReturn {
				continue
			}
			for _, r := range in.Results {
				if r == nil || r.Type == nil || !isRequestType(r.Type) {
					continue
				}
				for o := range ia.originsOf(r) {
					if ia.bornHere(o) {
						return true
					}
				}
			}
		}
	}
	return false
}

// bornHere reports whether origin o introduces freshly kicked requests.
func (ia *ipiAnalysis) bornHere(o *Value) bool {
	if o.Kind != VCall || o.Callee == nil {
		return false
	}
	if isCallMany(o.Callee) {
		return true
	}
	return ia.returnsLive[o.Callee]
}

func isCallMany(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return fn.Name() == "CallMany" && sig != nil && sig.Recv() != nil &&
		isNamed(sig.Recv().Type(), smpPkg, "Layer")
}

// summaryFor resolves the effect summary of a call (interface calls union
// their implementations' summaries).
func (ia *ipiAnalysis) summaryFor(call *Value) ipiSummary {
	if call.Callee == nil {
		return nil
	}
	var out ipiSummary
	for _, t := range ia.prog.calleesOf(call) {
		for idx, eff := range ia.summaries[t] {
			if out == nil {
				out = make(ipiSummary)
			}
			if out[idx] < eff {
				out[idx] = eff
			}
		}
	}
	return out
}

// originsOf computes the origin set of a request-typed value: the births
// (CallMany results), borrows (params, receivers, fields, globals) and
// hand-built literals it may alias, through phis, appends, copies,
// indexing, ranging and passthrough kinds.
func (ia *ipiAnalysis) originsOf(v *Value) map[*Value]bool {
	if v == nil {
		return nil
	}
	if memo, ok := ia.origins[v]; ok {
		return memo
	}
	ia.origins[v] = nil // cycle guard: in-progress reads see the partial set
	out := make(map[*Value]bool)
	switch v.Kind {
	case VCall:
		switch v.Builtin {
		case "append", "copy":
			for _, a := range v.Args {
				for o := range ia.originsOf(a) {
					out[o] = true
				}
			}
		case "":
			out[v] = true
		}
	case VParam, VRecv, VFree, VGlobal, VZero, VFieldRead:
		out[v] = true
	case VComposite:
		if _, isSlice := underlyingOf(v.Type).(*types.Slice); isSlice {
			for _, a := range v.Args {
				for o := range ia.originsOf(a) {
					out[o] = true
				}
			}
			if len(out) == 0 {
				out[v] = true
			}
		} else {
			out[v] = true
		}
	case VPhi:
		for _, a := range v.Args {
			if a == v {
				continue
			}
			for o := range ia.originsOf(a) {
				out[o] = true
			}
		}
	case VIndexRead, VRangeVal, VRangeKey, VAddr, VDeref, VExtract:
		for o := range ia.originsOf(v.Base) {
			out[o] = true
		}
	case VOp:
		for _, a := range v.Args {
			if a != nil && a.Type != nil && isRequestType(a.Type) {
				for o := range ia.originsOf(a) {
					out[o] = true
				}
			}
		}
	}
	ia.origins[v] = out
	return out
}

func underlyingOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func initIPIBits(o *Value) ipiBits {
	switch o.Kind {
	case VZero, VComposite:
		return ipiUnkicked
	case VCall:
		return ipiLive // reached only for born-here origins
	}
	return 0
}

// analyzeUnit runs the path-sensitive DFA over one unit.
func (ia *ipiAnalysis) analyzeUnit(f *Func) {
	in := flowForward(f, make(ipiState), func(b *IRBlock, st ipiState) []ipiState {
		out := ia.transferBlock(f, b, st.clone())
		outs := make([]ipiState, len(b.Succs))
		for i := range outs {
			outs[i] = out
		}
		return outs
	}, func(prev, out ipiState) (ipiState, bool) {
		merged := joinIPI(prev.clone(), out)
		return merged, !equalIPI(merged, prev)
	})
	// Normal exit: deferred calls run, then every born-here origin must be
	// discharged or transferred. Panic exits release obligations.
	exitSt, ok := in[f.Exit]
	if !ok {
		return
	}
	exitSt = exitSt.clone()
	for _, d := range f.Defers {
		ia.applyCall(f, d, exitSt)
	}
	for o, bits := range exitSt {
		if !ia.bornHere(o) {
			continue
		}
		if bits&ipiLive != 0 && bits&(ipiDisch|ipiMoved) == 0 {
			ia.report(f, o.Pos, "ipistate",
				"in-flight shootdown leaked: requests kicked by %s are neither waited for, returned, nor enqueued on some path to return", callLabel(o))
		}
	}
}

// transferBlock folds one block's calls and side effects into st.
func (ia *ipiAnalysis) transferBlock(f *Func, b *IRBlock, st ipiState) ipiState {
	for _, call := range b.Calls {
		ia.applyCall(f, call, st)
	}
	for _, in := range b.Instrs {
		switch in.Kind {
		case IStore, ISend:
			ia.markMoved(in.Val, st)
		case IReturn:
			for _, r := range in.Results {
				ia.markMoved(r, st)
			}
		}
	}
	return st
}

// markMoved transfers the obligation of every request origin in v: stores
// to fields/globals and channel sends are the enqueue-transfer DFA edge,
// returns the deferred-discharge edge.
func (ia *ipiAnalysis) markMoved(v *Value, st ipiState) {
	if v == nil || v.Type == nil || !isRequestType(v.Type) {
		return
	}
	for o := range ia.originsOf(v) {
		st[o] |= ipiMoved
	}
}

// applyCall folds one call's protocol effect into st.
func (ia *ipiAnalysis) applyCall(f *Func, call *Value, st ipiState) {
	if call == nil || call.Callee == nil {
		return
	}
	if isCallMany(call.Callee) || ia.returnsLive[call.Callee] {
		st[call] = ipiLive
		return
	}
	sum := ia.summaryFor(call)
	for idx, eff := range sum {
		if idx >= len(call.Args) {
			continue
		}
		arg := call.Args[idx]
		if arg == nil {
			continue
		}
		for o := range ia.originsOf(arg) {
			bits, ok := st[o]
			if !ok {
				bits = initIPIBits(o)
			}
			if eff == effWait {
				if bits&ipiUnkicked != 0 && bits&(ipiLive|ipiDisch) == 0 {
					ia.report(f, call.Pos, "ipistate",
						"wait before kick: waiting on a hand-built request set that was never kicked through smp.CallMany (typestate new -> waited skips kicked)")
				}
				if bits&ipiDisch != 0 && bits&ipiLive == 0 {
					ia.report(f, call.Pos, "ipistate",
						"double discharge: this request set is already acked and discharged on every path reaching this wait")
				}
			}
			st[o] = (bits &^ (ipiLive | ipiUnkicked)) | ipiDisch
		}
	}
}

func callLabel(o *Value) string {
	if o.Callee != nil {
		return o.Callee.Name()
	}
	return "CallMany"
}

func (ia *ipiAnalysis) report(f *Func, pos token.Pos, analyzer, format string, args ...any) {
	file, line := ia.ctx.posLine(f.Decl, pos)
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%s", file, line, msg)
	if ia.reported[key] {
		return
	}
	ia.reported[key] = true
	ia.findings = append(ia.findings, Finding{
		File: file, Line: line, Analyzer: analyzer, Msg: msg,
	})
}
