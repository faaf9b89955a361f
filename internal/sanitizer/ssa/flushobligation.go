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
//   - A `// obligation-transferred: <why>` marker on or above the
//     creating line waives the check and is recorded as a Suppression.
//
// Any path from a creation to the function's exit with the obligation
// still live is a finding: a restrictive PTE change some interleaving can
// translate through stale.

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

// obligation tracks one live flush obligation.
type obligation struct {
	file string
	line int
	// desc names the creating call ("as.Unmap") for the report.
	desc string
	// errVar is the error result paired with the creation; the obligation
	// is released on the path where that error is non-nil.
	errVar *types.Var
	// paramIdx >= 0 marks a summary-mode seed: the obligation entered via
	// parameter paramIdx and leaking it means "not a discharging param",
	// not a finding.
	paramIdx int
}

type oblState map[*types.Var]*obligation

func (s oblState) clone() oblState {
	out := make(oblState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst, reporting whether dst changed.
func (s oblState) mergeInto(dst oblState, from oblState) bool {
	changed := false
	for k, v := range from {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return changed
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
func checkFlushObligation(ctx *modCtx) ([]Finding, []Suppression) {
	funcs := allFuncs(ctx.pkgs)
	discharging := seedDischargers(ctx)

	// Fixpoint over obligation-transfer helpers: a module function with a
	// FlushRange parameter that discharges it on every path is itself a
	// discharger, so wrappers around FlushAfter compose.
	candidates := dischargeCandidates(funcs, discharging)
	for changed := true; changed; {
		changed = false
		for _, c := range candidates {
			leaks := analyzeObligations(ctx, c.fd, c.seedIdx, discharging, nil, nil)
			for _, idx := range c.seedIdx {
				if !leaks[idx] && discharging.mark(c.fd.Obj, idx) {
					changed = true
				}
			}
		}
	}

	// Reporting pass over every function body, then over every function
	// literal as its own unit (a daemon's Task.Fn closure or a
	// kernelSection body runs later with its own control flow; its
	// obligations are not the installing function's).
	var findings []Finding
	var sups []Suppression
	for _, fd := range funcs {
		analyzeObligations(ctx, fd, nil, discharging, &findings, &sups)
		for _, lit := range funcLitsIn(fd.Decl.Body) {
			a := newOblAnalysis(ctx, fd, discharging, &findings, &sups)
			a.unitName = "the function literal in " + fd.Decl.Name.Name
			a.analyzeBody(lit.Body, nil)
		}
	}
	return findings, sups
}

// funcLitsIn lists every function literal nested anywhere in body.
func funcLitsIn(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// seedDischargers marks the protocol's root discharge points: the
// kernel.Flusher interface's FlushRange parameters and every module
// implementation of the interface.
func seedDischargers(ctx *modCtx) dischargeSet {
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
		markFlushParams(iface.Method(i))
	}
	// Concrete implementations: their identically named methods discharge
	// the same parameters.
	for _, p := range ctx.pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				impl, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, p.Types, m.Name())
				if fn, ok := impl.(*types.Func); ok {
					markFlushParams(fn)
				}
			}
		}
	}
	return d
}

type dischargeCandidate struct {
	fd      FuncDecl
	seedIdx []int
}

// dischargeCandidates lists functions with FlushRange parameters that are
// not already root dischargers.
func dischargeCandidates(funcs []FuncDecl, roots dischargeSet) []dischargeCandidate {
	var out []dischargeCandidate
	for _, fd := range funcs {
		sig := fd.Obj.Type().(*types.Signature)
		var idx []int
		for i := 0; i < sig.Params().Len(); i++ {
			if isObligationType(sig.Params().At(i).Type()) && !roots.has(fd.Obj, i) {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			out = append(out, dischargeCandidate{fd: fd, seedIdx: idx})
		}
	}
	return out
}

// oblAnalysis carries one function's dataflow run.
type oblAnalysis struct {
	ctx         *modCtx
	fd          FuncDecl
	info        *types.Info
	discharging dischargeSet
	findings    *[]Finding
	sups        *[]Suppression
	// unitName names the analyzed body in exit-leak reports (the declared
	// function, or "the function literal in <func>").
	unitName string
	// seen dedupes findings across worklist revisits.
	seen map[string]bool
	// leaks collects parameter indices whose seeded obligation escaped
	// (summary mode).
	leaks map[int]bool
}

func newOblAnalysis(ctx *modCtx, fd FuncDecl, discharging dischargeSet, findings *[]Finding, sups *[]Suppression) *oblAnalysis {
	return &oblAnalysis{
		ctx: ctx, fd: fd, info: fd.Pkg.Info, discharging: discharging,
		findings: findings, sups: sups, unitName: fd.Decl.Name.Name,
		seen: make(map[string]bool), leaks: make(map[int]bool),
	}
}

// analyzeObligations runs the must-discharge dataflow over fd. seedIdx,
// when non-empty, seeds the listed FlushRange parameters as obligations
// (summary mode: findings/sups are nil and the leaked indices are
// returned). In reporting mode findings and suppressions are appended.
func analyzeObligations(ctx *modCtx, fd FuncDecl, seedIdx []int, discharging dischargeSet, findings *[]Finding, sups *[]Suppression) map[int]bool {
	a := newOblAnalysis(ctx, fd, discharging, findings, sups)
	entry := make(oblState)
	sig := fd.Obj.Type().(*types.Signature)
	for _, idx := range seedIdx {
		pv := sig.Params().At(idx)
		entry[pv] = &obligation{paramIdx: idx, desc: "parameter " + pv.Name()}
	}
	return a.analyzeBody(fd.Decl.Body, entry)
}

// analyzeBody runs the dataflow over one body (a declared function's or a
// function literal's) with the given entry state.
func (a *oblAnalysis) analyzeBody(body *ast.BlockStmt, entry oblState) map[int]bool {
	g := buildCFG(body)
	if entry == nil {
		entry = make(oblState)
	}

	in := make(map[*cfgBlock]oblState, len(g.blocks))
	in[g.entry] = entry
	work := []*cfgBlock{g.entry}
	inWork := map[*cfgBlock]bool{g.entry: true}
	for len(work) > 0 {
		b := work[0]
		work, inWork[b] = work[1:], false
		outs := a.flow(b, in[b].clone())
		for _, eo := range outs {
			if eo.to == nil {
				continue
			}
			if in[eo.to] == nil {
				in[eo.to] = make(oblState)
			}
			if oblState(nil).mergeInto(in[eo.to], eo.state) && !inWork[eo.to] {
				work = append(work, eo.to)
				inWork[eo.to] = true
			}
		}
	}

	// Exit check: apply deferred discharges, then report what is live.
	exitState := in[g.exit]
	if exitState == nil {
		exitState = make(oblState)
	}
	exitState = exitState.clone()
	for _, df := range g.defers {
		a.dischargeCallArgs(df.Call, exitState)
	}
	for _, ob := range exitState {
		a.leak(ob)
	}
	return a.leaks
}

type edgeOut struct {
	to    *cfgBlock
	state oblState
}

// flow pushes state through one block, returning per-edge output states.
func (a *oblAnalysis) flow(b *cfgBlock, st oblState) []edgeOut {
	// Range-head blocks: the RangeStmt node is handled edge-sensitively
	// below; an element obligation arriving back at the head leaked out of
	// its iteration.
	if b.rangeStmt != nil {
		return a.flowRangeHead(b, st)
	}
	for _, n := range b.nodes {
		a.transferNode(n, st)
	}
	if b.cond != nil {
		tState, fState := st, st.clone()
		a.applyCondRelease(b.cond, tState, fState)
		return []edgeOut{{b.tsucc, tState}, {b.fsucc, fState}}
	}
	outs := make([]edgeOut, 0, len(b.succs))
	for _, s := range b.succs {
		outs = append(outs, edgeOut{s, st})
	}
	return outs
}

// flowRangeHead handles `for _, fr := range frs` over an obligation
// slice: the slice obligation becomes a per-element obligation inside the
// body and is considered fully discharged once the loop completes.
// buildCFG connects the body edge first, then the after edge.
func (a *oblAnalysis) flowRangeHead(b *cfgBlock, st oblState) []edgeOut {
	rng := b.rangeStmt
	elemVar := identObj(a.info, rng.Value)
	if elemVar != nil {
		if ob, live := st[elemVar]; live {
			a.report(ob, fmt.Sprintf("flush obligation from %s may be dropped by the next loop iteration", ob.desc))
			delete(st, elemVar)
		}
	}
	xVar := identObj(a.info, rng.X)
	body, after := b.succs[0], b.succs[1]
	bodyState, afterState := st.clone(), st.clone()
	if xVar != nil {
		if ob, live := st[xVar]; live && isFlushRangeSlice(xVar.Type()) {
			delete(bodyState, xVar)
			delete(afterState, xVar)
			if elemVar != nil {
				elemOb := *ob
				bodyState[elemVar] = &elemOb
			}
		}
	}
	return []edgeOut{{body, bodyState}, {after, afterState}}
}

// transferNode applies one statement or expression to the state.
func (a *oblAnalysis) transferNode(n ast.Node, st oblState) {
	switch v := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(v, st)
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			a.scanCalls(res, st, true)
		}
		for _, res := range v.Results {
			if rv := identObj(a.info, unwrap(a.info, res)); rv != nil {
				// Returning the value transfers the obligation: the caller's
				// own call re-births it under the signature rule.
				delete(st, rv)
			}
		}
	case *ast.DeferStmt:
		// Applied at exit by the caller of the dataflow.
	default:
		a.scanCalls(n, st, false)
	}
}

// transferAssign handles births (creating calls), aliasing moves, and
// overwrite kills.
func (a *oblAnalysis) transferAssign(as *ast.AssignStmt, st oblState) {
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			a.scanCallArgsOnly(call, st)
			if positions := a.creationResults(call); positions != nil {
				a.birth(call, as.Lhs, positions, st)
				return
			}
			// Non-creating call result: plain overwrite of the LHS.
			for _, l := range as.Lhs {
				if lv := identObj(a.info, l); lv != nil {
					delete(st, lv)
				}
			}
			return
		}
	}
	// Value assignments: alias moves and overwrites.
	for i, r := range as.Rhs {
		a.scanCalls(r, st, false)
		if i >= len(as.Lhs) {
			continue
		}
		lv := identObj(a.info, as.Lhs[i])
		rv := identObj(a.info, unwrap(a.info, r))
		if lv == nil {
			continue
		}
		if rv != nil {
			if ob, live := st[rv]; live {
				// Move semantics: the obligation follows the alias.
				delete(st, rv)
				st[lv] = ob
				continue
			}
		}
		delete(st, lv)
	}
}

// creationResults returns the result indices of call that carry
// obligations, or nil when the call creates none. Only module functions
// create obligations: FlushRange composite literals are descriptions, not
// page-table mutations.
func (a *oblAnalysis) creationResults(call *ast.CallExpr) []int {
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modPath) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isObligationType(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// birth registers the obligations a creating call assigns.
func (a *oblAnalysis) birth(call *ast.CallExpr, lhs []ast.Expr, positions []int, st oblState) {
	pos := a.ctx.m.Fset.Position(call.Pos())
	file, line := a.fileRel(call.Pos()), pos.Line
	desc := callDesc(call)

	if reason, ok := a.ctx.markerFor(file, line); ok {
		a.suppress(file, line, reason)
		return
	}

	sig := calleeFunc(a.info, call).Type().(*types.Signature)
	// Pair the error result's variable, if the call returns one.
	var errVar *types.Var
	for i := 0; i < sig.Results().Len(); i++ {
		if i < len(lhs) && types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			errVar = identObj(a.info, lhs[i])
		}
	}

	for _, i := range positions {
		if i >= len(lhs) {
			continue
		}
		ob := &obligation{file: file, line: line, desc: desc, errVar: errVar, paramIdx: -1}
		lv := identObj(a.info, lhs[i])
		if lv == nil || lv.Name() == "_" {
			a.report(ob, fmt.Sprintf("flush obligation from %s is discarded; pass it to the Flusher, return it, or document why with an %q marker", desc, transferMarker))
			continue
		}
		st[lv] = ob
	}
}

// scanCalls walks an expression tree, discharging obligation arguments
// and flagging creating calls whose results are dropped. consumed marks
// the root expression's call results as captured (return statements
// transfer them to the caller).
func (a *oblAnalysis) scanCalls(n ast.Node, st oblState, consumed bool) {
	var rootCall *ast.CallExpr
	if e, ok := n.(ast.Expr); ok && consumed {
		rootCall, _ = ast.Unparen(e).(*ast.CallExpr)
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			// A nested function literal is its own analysis unit; its body
			// does not execute here.
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.dischargeCallArgs(call, st)
		if positions := a.creationResults(call); positions != nil && call != rootCall {
			file, line := a.fileRel(call.Pos()), a.ctx.m.Fset.Position(call.Pos()).Line
			if reason, ok := a.ctx.markerFor(file, line); ok {
				a.suppress(file, line, reason)
			} else {
				ob := &obligation{file: file, line: line, desc: callDesc(call), paramIdx: -1}
				a.report(ob, fmt.Sprintf("flush obligation from %s is discarded; pass it to the Flusher, return it, or document why with an %q marker", ob.desc, transferMarker))
			}
		}
		return true
	})
}

// scanCallArgsOnly discharges and drop-checks within a call's arguments
// (used when the call itself is the handled RHS of an assignment).
func (a *oblAnalysis) scanCallArgsOnly(call *ast.CallExpr, st oblState) {
	a.dischargeCallArgs(call, st)
	for _, arg := range call.Args {
		a.scanCalls(arg, st, false)
	}
}

// dischargeCallArgs removes obligations passed whole to a discharging
// parameter of the callee.
func (a *oblAnalysis) dischargeCallArgs(call *ast.CallExpr, st oblState) {
	fn := calleeFunc(a.info, call)
	if fn == nil {
		return
	}
	for i, arg := range call.Args {
		if !a.discharging.has(fn, i) {
			continue
		}
		if v := identObj(a.info, unwrap(a.info, arg)); v != nil {
			delete(st, v)
		}
	}
}

// applyCondRelease implements the path-sensitive release rules on an
// atomic condition's edges.
func (a *oblAnalysis) applyCondRelease(cond ast.Expr, tState, fState oblState) {
	// err != nil / err == nil: the error path owes no flush.
	if be, ok := cond.(*ast.BinaryExpr); ok && (be.Op == token.NEQ || be.Op == token.EQL) {
		var id ast.Expr
		switch {
		case isNilIdent(be.Y):
			id = be.X
		case isNilIdent(be.X):
			id = be.Y
		}
		if id != nil {
			if ev := identObj(a.info, id); ev != nil {
				errSt := tState
				if be.Op == token.EQL {
					errSt = fState
				}
				for v, ob := range errSt {
					if ob.errVar == ev {
						delete(errSt, v)
					}
				}
			}
		}
		return
	}
	// fr.Empty(): nothing to invalidate on the true edge.
	if call, ok := cond.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Empty" {
			if recv := identObj(a.info, unwrap(a.info, sel.X)); recv != nil && isFlushRange(recv.Type()) {
				delete(tState, recv)
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// leak records an obligation alive at exit.
func (a *oblAnalysis) leak(ob *obligation) {
	if ob.paramIdx >= 0 {
		a.leaks[ob.paramIdx] = true
		return
	}
	a.report(ob, fmt.Sprintf("flush obligation from %s may reach %s's exit undischarged: some path performs a restrictive page-table mutation without a TLB shootdown (pass the FlushRange to the Flusher, return it, or add an %q marker)",
		ob.desc, a.unitName, transferMarker))
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

func (a *oblAnalysis) suppress(file string, line int, reason string) {
	if a.sups == nil {
		return
	}
	key := fmt.Sprintf("sup:%s:%d", file, line)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	*a.sups = append(*a.sups, Suppression{
		File: file, Line: line, Analyzer: "flushobligation", Reason: reason,
	})
}

func (a *oblAnalysis) fileRel(pos token.Pos) string {
	_, rel := a.fd.Pkg.FileOf(pos)
	if rel == "" {
		rel = a.fd.File
	}
	return rel
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
