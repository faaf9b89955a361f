package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// flushobligation enforces the paper's §3 safety contract statically:
// every restrictive page-table mutation must be covered by a TLB
// shootdown before the caller can proceed as if the mapping changed. In
// this codebase the contract is visible in the types — every mutator in
// internal/mm returns the invalidation work as an mm.FlushRange (or a
// slice of them) — so the analyzer needs no name list:
//
//   - An OBLIGATION is born whenever a call to a module function returns
//     a value of type mm.FlushRange or []mm.FlushRange.
//   - It is DISCHARGED by passing the value (whole) to a discharging
//     parameter: the kernel.Flusher interface's FlushAfter, any module
//     type implementing kernel.Flusher, or any module function proven by
//     fixpoint to discharge that parameter on every path.
//   - It is TRANSFERRED by returning the value: the caller's own call
//     then births the obligation again, so the contract follows the value
//     up the call graph (kernel.ForkAddressSpace → syscalls.Fork).
//   - It is RELEASED on paths where no flush is needed: the error edge of
//     the paired error result, the true edge of fr.Empty(), panicking
//     paths, and — per element — a `range` over an obligation slice.
//
// Any path from a creation to the function's exit with the obligation
// still live is a finding: a restrictive PTE change some interleaving can
// translate through stale. The dataflow runs over the shared SSA program's
// blocks and keys an obligation by the value that carries it, so copies
// through locals and phis are one obligation; a result that no variable or
// operand ever holds (assigned to _, or a bare statement call) is reported
// where it is born.

func isFlushRange(t types.Type) bool {
	return isNamed(t, modPath+"/internal/mm", "FlushRange")
}

func isFlushRangeSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isFlushRange(s.Elem())
}

func isObligationType(t types.Type) bool {
	return isFlushRange(t) || isFlushRangeSlice(t)
}

// oblKey names one obligation: result res of the creating call origin,
// or (res 0) a seeded parameter or a range element binding. Keying by SSA
// value makes every copy of the FlushRange the same obligation.
type oblKey struct {
	origin *Value
	res    int
}

// obligation tracks one live flush obligation.
type obligation struct {
	file string
	line int
	// desc names the creating call ("as.Unmap") for the report.
	desc string
	// errKey is the error result paired with the creation; the obligation
	// is released on the path where that error is non-nil.
	errKey oblKey
	// paramIdx >= 0 marks a summary-mode seed: the obligation entered via
	// parameter paramIdx and leaking it means "not a discharging param",
	// not a finding.
	paramIdx int
}

type oblState map[oblKey]*obligation

func (s oblState) clone() oblState {
	out := make(oblState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// dischargeSet maps a function to the parameter indices it discharges.
type dischargeSet map[*types.Func]map[int]bool

func (d dischargeSet) mark(fn *types.Func, idx int) bool {
	if d[fn] == nil {
		d[fn] = make(map[int]bool)
	}
	if d[fn][idx] {
		return false
	}
	d[fn][idx] = true
	return true
}

func (d dischargeSet) has(fn *types.Func, idx int) bool { return fn != nil && d[fn][idx] }

// checkFlushObligation runs the analyzer over the whole module.
func checkFlushObligation(ctx *modCtx) []Finding {
	prog := ctx.program()
	discharging := seedDischargers(ctx, prog)

	// Fixpoint over obligation-transfer helpers: a module function with a
	// FlushRange parameter that discharges it on every path is itself a
	// discharger, so wrappers around FlushAfter compose.
	type candidate struct {
		f       *Func
		seedIdx []int
	}
	var cands []candidate
	for _, f := range prog.Funcs {
		var idx []int
		for i := 0; i < f.Sig.Params().Len(); i++ {
			if isObligationType(f.Sig.Params().At(i).Type()) && !discharging.has(f.Decl.Obj, i) {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			cands = append(cands, candidate{f, idx})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			leaks := newOblAnalysis(ctx, c.f, discharging, nil).run(c.seedIdx)
			for _, idx := range c.seedIdx {
				if !leaks[idx] && discharging.mark(c.f.Decl.Obj, idx) {
					changed = true
				}
			}
		}
	}

	// Reporting pass over every unit: a function literal (a daemon's
	// Task.Fn closure or a kernelSection body) runs later with its own
	// control flow, so its obligations are not the installing function's.
	var findings []Finding
	prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			ctx.visited["flushobligation"]++
		}
		newOblAnalysis(ctx, f, discharging, &findings).run(nil)
	})
	return findings
}

// seedDischargers marks the protocol's root discharge points: the
// kernel.Flusher interface's FlushRange parameters and every module
// implementation of the interface.
func seedDischargers(ctx *modCtx, prog *Program) dischargeSet {
	d := make(dischargeSet)
	kp := ctx.m.Lookup(modPath + "/internal/kernel")
	if kp == nil {
		return d
	}
	obj := kp.Types.Scope().Lookup("Flusher")
	if obj == nil {
		return d
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return d
	}
	markFlushParams := func(fn *types.Func) {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if isObligationType(sig.Params().At(i).Type()) {
				d.mark(fn, i)
			}
		}
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		markFlushParams(m)
		for _, impl := range prog.Impls[m] {
			markFlushParams(impl)
		}
	}
	return d
}

// oblAnalysis carries one unit's dataflow run.
type oblAnalysis struct {
	ctx         *modCtx
	f           *Func
	discharging dischargeSet
	findings    *[]Finding
	// held lists the obligations some variable or operand of f holds;
	// rangeVal maps a range-loop head to its element binding.
	held     map[oblKey]bool
	rangeVal map[*IRBlock]*Value
	// seen dedupes findings across worklist revisits.
	seen map[string]bool
	// leaks collects parameter indices whose seeded obligation escaped
	// (summary mode).
	leaks map[int]bool
}

func newOblAnalysis(ctx *modCtx, f *Func, discharging dischargeSet, findings *[]Finding) *oblAnalysis {
	a := &oblAnalysis{
		ctx: ctx, f: f, discharging: discharging, findings: findings,
		held: make(map[oblKey]bool), rangeVal: make(map[*IRBlock]*Value),
		seen: make(map[string]bool), leaks: make(map[int]bool),
	}
	hold := func(v *Value) {
		switch {
		case v == nil:
		case v.Kind == VExtract:
			a.held[oblKey{v.Base, v.ResIdx}] = true
		case v.Kind == VCall:
			a.held[oblKey{v, 0}] = true
		}
	}
	for _, v := range f.values {
		if v.Kind != VExtract { // a projection does not use the whole call
			hold(v.Base)
		}
		for _, arg := range v.Args {
			hold(arg)
		}
		if v.Kind == VRangeVal {
			a.rangeVal[v.Block] = v
		}
	}
	for _, b := range f.Blocks {
		hold(b.CondV)
		hold(b.Range)
		for _, in := range b.Instrs {
			if in.Kind != IExpr && in.Kind != IGo && in.Kind != IDefer {
				hold(in.Val)
			}
			hold(in.Addr)
			for _, r := range in.Results {
				hold(r)
			}
		}
	}
	f.eachBinding(hold)
	return a
}

// keysOf visits the obligations v may carry: a creating call's result, a
// seeded parameter or a range element, through phis, address-of and
// dereference.
func (a *oblAnalysis) keysOf(v *Value, visit func(oblKey)) {
	seen := make(map[*Value]bool)
	var walk func(v *Value)
	walk = func(v *Value) {
		if v == nil || seen[v] {
			return
		}
		seen[v] = true
		switch v.Kind {
		case VExtract:
			visit(oblKey{v.Base, v.ResIdx})
		case VCall, VParam, VRangeVal:
			visit(oblKey{v, 0})
		case VPhi:
			for _, arg := range v.Args {
				walk(arg)
			}
		case VAddr, VDeref:
			walk(v.Base)
		}
	}
	walk(v)
}

// release drops every obligation v carries from st.
func (a *oblAnalysis) release(v *Value, st oblState) {
	a.keysOf(v, func(k oblKey) { delete(st, k) })
}

// run executes the must-discharge dataflow over the unit. seedIdx, when
// non-empty, seeds the listed FlushRange parameters as obligations
// (summary mode: findings is nil and the leaked indices are returned).
// In reporting mode findings are appended.
func (a *oblAnalysis) run(seedIdx []int) map[int]bool {
	f := a.f
	entry := make(oblState)
	for _, idx := range seedIdx {
		pv := f.Sig.Params().At(idx)
		entry[oblKey{f.params[pv], 0}] = &obligation{paramIdx: idx, desc: "parameter " + pv.Name()}
	}
	in := flowForward(f, entry, func(b *IRBlock, st oblState) []oblState {
		return a.flow(b, st.clone())
	}, unionJoin[oblState])

	// Exit check: apply deferred discharges, then report what is live.
	// Panicking paths end in PanicExit and owe nothing.
	exit := in[f.Exit].clone()
	for _, d := range f.Defers {
		a.discharge(d, exit)
	}
	for _, ob := range exit {
		a.leak(ob)
	}
	return a.leaks
}

// flow pushes st through one block, returning one out-state per successor.
func (a *oblAnalysis) flow(b *IRBlock, st oblState) []oblState {
	if b.Range != nil {
		return a.flowRangeHead(b, st)
	}
	a.transfer(b, st)
	if b.CondV != nil && len(b.Succs) == 2 {
		tState, fState := st, st.clone()
		a.applyCondRelease(b.CondV, tState, fState)
		return []oblState{tState, fState}
	}
	outs := make([]oblState, len(b.Succs))
	for i := range outs {
		outs[i] = st
	}
	return outs
}

// flowRangeHead handles `for _, fr := range frs` over an obligation
// slice: the slice obligation becomes a per-element obligation inside the
// body and is considered fully discharged once the loop completes. The
// head's first successor is the body, its second the loop exit.
func (a *oblAnalysis) flowRangeHead(b *IRBlock, st oblState) []oblState {
	elem := a.rangeVal[b]
	if elem != nil {
		if ob, live := st[oblKey{elem, 0}]; live {
			a.report(ob, fmt.Sprintf("flush obligation from %s may be dropped by the next loop iteration", ob.desc))
			delete(st, oblKey{elem, 0})
		}
	}
	a.transfer(b, st)
	body, after := st.clone(), st
	if isFlushRangeSlice(b.Range.Type) {
		var moved *obligation
		a.keysOf(b.Range, func(k oblKey) {
			if ob, live := st[k]; live {
				if moved == nil {
					moved = ob
				}
				delete(body, k)
				delete(after, k)
			}
		})
		if moved != nil && elem != nil {
			elemOb := *moved
			body[oblKey{elem, 0}] = &elemOb
		}
	}
	return []oblState{body, after}
}

// transfer replays a block's calls (births and discharges, in evaluation
// order; deferred calls wait for exit) and its returns, which transfer
// the returned obligations to the caller: the caller's own call re-births
// them under the signature rule.
func (a *oblAnalysis) transfer(b *IRBlock, st oblState) {
	for _, call := range b.Calls {
		if !call.Deferred {
			a.discharge(call, st)
			a.birth(call, st)
		}
	}
	for _, in := range b.Instrs {
		if in.Kind == IReturn {
			for _, r := range in.Results {
				a.release(r, st)
			}
		}
	}
}

// birth registers the obligations a creating call returns. Only module
// functions create obligations: FlushRange composite literals are
// descriptions, not page-table mutations.
func (a *oblAnalysis) birth(call *Value, st oblState) {
	fn := call.Callee
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modPath) {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	var created []int
	var errKey oblKey
	for i := 0; i < results.Len(); i++ {
		switch t := results.At(i).Type(); {
		case isObligationType(t):
			created = append(created, i)
		case types.Identical(t, types.Universe.Lookup("error").Type()):
			errKey = oblKey{call, i}
		}
	}
	if created == nil {
		return
	}
	file, line := a.ctx.posLine(a.f.Decl, call.Pos)
	desc := callDesc(call.Call)
	for _, i := range created {
		ob := &obligation{file: file, line: line, desc: desc, errKey: errKey, paramIdx: -1}
		if k := (oblKey{call, i}); a.held[k] {
			st[k] = ob
		} else {
			a.report(ob, fmt.Sprintf("flush obligation from %s is discarded; pass it to the Flusher or return it", desc))
		}
	}
}

// discharge removes obligations passed to a discharging parameter of the
// callee.
func (a *oblAnalysis) discharge(call *Value, st oblState) {
	for i, arg := range call.Args {
		if a.discharging.has(call.Callee, i) {
			a.release(arg, st)
		}
	}
}

// isNilConst reports whether v is the untyped nil constant.
func isNilConst(v *Value) bool {
	return v != nil && v.Kind == VConst && v.Const == nil
}

// applyCondRelease implements the path-sensitive release rules on an
// atomic condition's edges.
func (a *oblAnalysis) applyCondRelease(cond *Value, tState, fState oblState) {
	// err != nil / err == nil: the error path owes no flush.
	if cond.Kind == VOp && (cond.Op == token.NEQ || cond.Op == token.EQL) && len(cond.Args) == 2 {
		var errV *Value
		switch {
		case isNilConst(cond.Args[1]):
			errV = cond.Args[0]
		case isNilConst(cond.Args[0]):
			errV = cond.Args[1]
		}
		if errV == nil {
			return
		}
		errSt := tState
		if cond.Op == token.EQL {
			errSt = fState
		}
		a.keysOf(errV, func(k oblKey) {
			for ok, ob := range errSt {
				if ob.errKey == k {
					delete(errSt, ok)
				}
			}
		})
		return
	}
	// fr.Empty(): nothing to invalidate on the true edge.
	if cond.Kind == VCall && cond.Callee != nil && cond.Callee.Name() == "Empty" &&
		cond.Base != nil && isFlushRange(cond.Base.Type) {
		a.release(cond.Base, tState)
	}
}

// leak records an obligation alive at exit.
func (a *oblAnalysis) leak(ob *obligation) {
	if ob.paramIdx >= 0 {
		a.leaks[ob.paramIdx] = true
		return
	}
	a.report(ob, fmt.Sprintf("flush obligation from %s may reach %s's exit undischarged: some path performs a restrictive page-table mutation without a TLB shootdown (pass the FlushRange to the Flusher or return it)",
		ob.desc, a.f.Name()))
}

func (a *oblAnalysis) report(ob *obligation, msg string) {
	if a.findings == nil {
		if ob.paramIdx >= 0 {
			a.leaks[ob.paramIdx] = true
		}
		return
	}
	key := fmt.Sprintf("%s:%d:%s", ob.file, ob.line, msg)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	*a.findings = append(*a.findings, Finding{
		File: ob.file, Line: ob.line, Analyzer: "flushobligation", Msg: msg,
	})
}

// callDesc renders a call like "as.Unmap" for reports.
func callDesc(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
