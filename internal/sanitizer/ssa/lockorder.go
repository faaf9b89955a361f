package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder is a static lockdep: it computes, over the whole call graph,
// which lock classes can be held when each other class is acquired, and
// reports any acquisition-order cycle. The runtime lockdep (internal/
// sanitizer) only validates the orders the executed seeds happen to take;
// this pass covers every path the types admit, so an AB/BA inversion is
// caught before the first seed runs.
//
// Locks are values of type mm.RWSem, found by type identity. Classes are
// lockdep-style: a lock is classed by where it lives — the struct field
// or accessor that holds it ("mm.AddressSpace.MmapSem",
// "core.Flusher.ipiMtx") — not by instance, exactly as Linux classes by
// lock-site. The analysis is edge-sensitive where it matters: a TryDown*
// used as a branch condition acquires only on its success edge (the
// kernel's IRQ-responsive DownRead spins on `for !sem.TryDownRead()`),
// and deferred Up* calls release at function exit, keeping the lock held
// across the body as the source does.
//
// Summaries (acquires / releases / held-at-exit / inner ordered pairs,
// with parameter-relative lock references) propagate through the call
// graph by fixpoint; interface-method calls (kernel.Flusher) resolve to
// every module implementation. Function-typed values (callbacks passed to
// smp.CallMany) are not traced — the runtime lockdep covers those.

const lockTypePkg = modPath + "/internal/mm"
const lockTypeName = "RWSem"

func isLockType(t types.Type) bool { return isNamed(t, lockTypePkg, lockTypeName) }

// lockRef is a canonical lock reference: "c:<class>" for a concrete
// class, "p:<i>" for the enclosing function's i-th parameter, "r" for its
// receiver. Unknown references resolve to "" and are ignored.
type lockRef = string

func classRef(class string) lockRef { return "c:" + class }
func paramRef(i int) lockRef        { return fmt.Sprintf("p:%d", i) }

const recvRef lockRef = "r"

func isConcrete(r lockRef) bool { return strings.HasPrefix(r, "c:") }

func className(r lockRef) string { return strings.TrimPrefix(r, "c:") }

// lockPair is one observed ordering: from held while to acquired.
type lockPair struct {
	from, to lockRef
	// file/line locate the acquisition that produced the pair.
	file string
	line int
}

// lockSummary is a function's effect on lock state.
type lockSummary struct {
	acquires map[lockRef]sitePos // ever-acquired (first site wins)
	releases map[lockRef]bool
	heldExit map[lockRef]bool
	pairs    []lockPair // ordered pairs with possibly-relative refs
}

type sitePos struct {
	file string
	line int
}

func newLockSummary() *lockSummary {
	return &lockSummary{
		acquires: make(map[lockRef]sitePos),
		releases: make(map[lockRef]bool),
		heldExit: make(map[lockRef]bool),
	}
}

func (s *lockSummary) equal(o *lockSummary) bool {
	if len(s.acquires) != len(o.acquires) || len(s.releases) != len(o.releases) ||
		len(s.heldExit) != len(o.heldExit) || len(s.pairs) != len(o.pairs) {
		return false
	}
	for k := range s.acquires {
		if _, ok := o.acquires[k]; !ok {
			return false
		}
	}
	for k := range s.releases {
		if !o.releases[k] {
			return false
		}
	}
	for k := range s.heldExit {
		if !o.heldExit[k] {
			return false
		}
	}
	return true
}

// checkLockOrder runs the static lockdep.
func checkLockOrder(ctx *modCtx) ([]Finding, []Suppression) {
	lo := &lockOrder{
		ctx:       ctx,
		summaries: make(map[*types.Func]*lockSummary),
		impls:     buildImplMap(ctx.pkgs),
	}
	funcs := allFuncs(ctx.pkgs)

	// Fixpoint over function summaries.
	for round := 0; ; round++ {
		changed := false
		for _, fd := range funcs {
			if isLockPrimitive(fd.Obj) {
				continue
			}
			sum := lo.analyzeFunc(fd)
			old := lo.summaries[fd.Obj]
			if old == nil || !old.equal(sum) {
				lo.summaries[fd.Obj] = sum
				changed = true
			}
		}
		if !changed || round > 50 {
			break
		}
	}

	// Function literals (task bodies, hooks) acquire their locks when they
	// run, not at their installation site; analyze each as its own unit
	// against the converged summaries.
	var litSums []*lockSummary
	for _, fd := range funcs {
		for _, lit := range funcLitsIn(fd.Decl.Body) {
			litSums = append(litSums, lo.analyzeBody(fd, lit.Body))
		}
	}

	// Collect concrete edges: every summary's pairs plus call-site
	// instantiations already folded in during analysis.
	type edge struct{ from, to string }
	edges := make(map[edge]sitePos)
	var allSums []*lockSummary
	for _, fd := range funcs {
		if sum := lo.summaries[fd.Obj]; sum != nil {
			allSums = append(allSums, sum)
		}
	}
	allSums = append(allSums, litSums...)
	for _, sum := range allSums {
		for _, p := range sum.pairs {
			if isConcrete(p.from) && isConcrete(p.to) {
				e := edge{className(p.from), className(p.to)}
				if old, ok := edges[e]; !ok || p.file < old.file || (p.file == old.file && p.line < old.line) {
					edges[e] = sitePos{p.file, p.line}
				}
			}
		}
	}

	// Cycle detection over the class graph.
	adj := make(map[string][]string)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	var nodes []string
	seenNode := make(map[string]bool)
	for e := range edges {
		for _, n := range []string{e.from, e.to} {
			if !seenNode[n] {
				seenNode[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	var findings []Finding
	reported := make(map[string]bool)
	for _, start := range nodes {
		cycle := findCycle(start, adj)
		if cycle == nil {
			continue
		}
		key := canonicalCycle(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		site := edges[edge{cycle[0], cycle[1%len(cycle)]}]
		findings = append(findings, Finding{
			File: site.file, Line: site.line, Analyzer: "lockorder",
			Msg: fmt.Sprintf("lock-acquisition-order cycle: %s -> %s: two tasks taking these locks in opposite orders can deadlock; pick one global order",
				strings.Join(cycle, " -> "), cycle[0]),
		})
	}
	return findings, nil
}

// findCycle returns a cycle through start, or nil.
func findCycle(start string, adj map[string][]string) []string {
	var path []string
	onPath := make(map[string]int)
	visited := make(map[string]bool)
	var dfs func(n string) []string
	dfs = func(n string) []string {
		if i, ok := onPath[n]; ok {
			if n == start {
				return append([]string{}, path[i:]...)
			}
			return nil
		}
		if visited[n] {
			return nil
		}
		visited[n] = true
		onPath[n] = len(path)
		path = append(path, n)
		for _, m := range adj[n] {
			if c := dfs(m); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		delete(onPath, n)
		return nil
	}
	return dfs(start)
}

// canonicalCycle rotates a cycle to start at its least element, so the
// same cycle found from different start nodes dedupes.
func canonicalCycle(c []string) string {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	rot := append(append([]string{}, c[min:]...), c[:min]...)
	return strings.Join(rot, "->")
}

// isLockPrimitive reports whether fn is one of the RWSem methods whose
// body IS the lock implementation (modeled by hardcoded summaries).
func isLockPrimitive(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isLockType(sig.Recv().Type()) {
		return false
	}
	switch fn.Name() {
	case "DownRead", "DownWrite", "TryDownRead", "TryDownWrite", "UpRead", "UpWrite":
		return true
	}
	return false
}

type lockOrder struct {
	ctx       *modCtx
	summaries map[*types.Func]*lockSummary
	impls     map[*types.Func][]*types.Func
}

// lockAnalysis is the per-function held-set dataflow.
type lockAnalysis struct {
	lo   *lockOrder
	fd   FuncDecl
	info *types.Info
	sum  *lockSummary
	// locals maps local variables to the lock reference they alias.
	locals map[*types.Var]lockRef
}

type heldSet map[lockRef]bool

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

// analyzeFunc computes fd's lock summary under the current fixpoint.
func (lo *lockOrder) analyzeFunc(fd FuncDecl) *lockSummary {
	return lo.analyzeBody(fd, fd.Decl.Body)
}

// analyzeBody runs the held-set dataflow over one body — a declared
// function's, or a function literal's (a daemon Task.Fn closure acquires
// its locks when the task runs, not when the constructor builds it).
func (lo *lockOrder) analyzeBody(fd FuncDecl, body *ast.BlockStmt) *lockSummary {
	a := &lockAnalysis{lo: lo, fd: fd, info: fd.Pkg.Info, sum: newLockSummary(), locals: make(map[*types.Var]lockRef)}
	a.bindLocals(body)
	g := buildCFG(body)

	in := make(map[*cfgBlock]heldSet, len(g.blocks))
	in[g.entry] = make(heldSet)
	work := []*cfgBlock{g.entry}
	inWork := map[*cfgBlock]bool{g.entry: true}
	merge := func(dst *cfgBlock, st heldSet) {
		if in[dst] == nil {
			in[dst] = make(heldSet)
		}
		changed := false
		for k := range st {
			if !in[dst][k] {
				in[dst][k] = true
				changed = true
			}
		}
		if changed && !inWork[dst] {
			work = append(work, dst)
			inWork[dst] = true
		}
	}
	for len(work) > 0 {
		b := work[0]
		work, inWork[b] = work[1:], false
		st := in[b].clone()
		condIsTry := false
		for _, n := range b.nodes {
			// The trailing atomic condition is handled edge-sensitively.
			if b.cond != nil && n == ast.Node(b.cond) {
				continue
			}
			a.transfer(n, st)
		}
		if b.cond != nil {
			tState, fState := st.clone(), st
			if ref, write, ok := a.tryDownCond(b.cond); ok {
				condIsTry = true
				a.acquire(ref, write, b.cond.Pos(), tState)
			}
			if !condIsTry {
				a.transfer(b.cond, tState)
				a.transfer(b.cond, fState)
			}
			merge(b.tsucc, tState)
			merge(b.fsucc, fState)
			continue
		}
		for _, s := range b.succs {
			merge(s, st)
		}
	}

	exit := in[g.exit]
	if exit == nil {
		exit = make(heldSet)
	}
	exit = exit.clone()
	// Deferred calls run at exit, releasing what they release.
	for _, df := range g.defers {
		a.transfer(df.Call, exit)
	}
	for ref := range exit {
		a.sum.heldExit[ref] = true
	}
	return a.sum
}

// bindLocals pre-scans for `v := <lock expr>` aliases so later method
// calls on v resolve to the aliased class.
func (a *lockAnalysis) bindLocals(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, r := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			lv := identObj(a.info, as.Lhs[i])
			if lv == nil || !isLockType(lv.Type()) {
				continue
			}
			if ref := a.exprRef(r); ref != "" {
				a.locals[lv] = ref
			}
		}
		return true
	})
}

// exprRef resolves an expression of lock type to its canonical reference.
func (a *lockAnalysis) exprRef(e ast.Expr) lockRef {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.Ident:
		obj, ok := a.info.ObjectOf(v).(*types.Var)
		if !ok {
			return ""
		}
		sig := a.fd.Obj.Type().(*types.Signature)
		if sig.Recv() == obj {
			return recvRef
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == obj {
				return paramRef(i)
			}
		}
		if ref, ok := a.locals[obj]; ok {
			return ref
		}
		return ""
	case *ast.SelectorExpr:
		sel, ok := a.info.Selections[v]
		if !ok {
			return ""
		}
		n := namedType(sel.Recv())
		if n == nil || n.Obj().Pkg() == nil {
			return ""
		}
		return classRef(n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + sel.Obj().Name())
	case *ast.CallExpr:
		// Accessor call returning the lock: class by the accessor.
		if fn := calleeFunc(a.info, v); fn != nil {
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil {
				if n := namedType(sig.Recv().Type()); n != nil && n.Obj().Pkg() != nil {
					return classRef(n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name())
				}
			}
		}
	}
	return ""
}

// tryDownCond matches a branch condition that is a bare TryDown* call.
func (a *lockAnalysis) tryDownCond(cond ast.Expr) (ref lockRef, write, ok bool) {
	call, isCall := ast.Unparen(cond).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := calleeFunc(a.info, call)
	if fn == nil || !isLockPrimitive(fn) {
		return "", false, false
	}
	if fn.Name() != "TryDownRead" && fn.Name() != "TryDownWrite" {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return a.exprRef(sel.X), fn.Name() == "TryDownWrite", true
}

// acquire registers an acquisition: ordering pairs against everything
// held, then the lock joins the held set.
func (a *lockAnalysis) acquire(ref lockRef, write bool, pos token.Pos, st heldSet) {
	_ = write
	if ref == "" {
		return
	}
	file, line := a.sitePos(pos)
	if _, ok := a.sum.acquires[ref]; !ok {
		a.sum.acquires[ref] = sitePos{file, line}
	}
	for h := range st {
		if h == ref {
			continue
		}
		a.sum.pairs = append(a.sum.pairs, lockPair{from: h, to: ref, file: file, line: line})
	}
	st[ref] = true
}

func (a *lockAnalysis) release(ref lockRef, st heldSet) {
	if ref == "" {
		return
	}
	a.sum.releases[ref] = true
	delete(st, ref)
}

func (a *lockAnalysis) sitePos(pos token.Pos) (string, int) {
	_, rel := a.fd.Pkg.FileOf(pos)
	if rel == "" {
		rel = a.fd.File
	}
	return rel, a.lo.ctx.m.Fset.Position(pos).Line
}

// transfer applies one node: lock primitives and call-site summary
// instantiation.
func (a *lockAnalysis) transfer(n ast.Node, st heldSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			// Nested literals run later, as their own units.
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.applyCall(call, st)
		return true
	})
}

// applyCall folds a callee's lock effects into the caller's state.
func (a *lockAnalysis) applyCall(call *ast.CallExpr, st heldSet) {
	fn := calleeFunc(a.info, call)
	if fn == nil {
		return
	}
	// Lock primitives.
	if isLockPrimitive(fn) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		ref := a.exprRef(sel.X)
		switch fn.Name() {
		case "DownRead", "DownWrite":
			a.acquire(ref, fn.Name() == "DownWrite", call.Pos(), st)
		case "TryDownRead", "TryDownWrite":
			// Not in condition position (handled there): conservatively
			// treat as acquired.
			a.acquire(ref, fn.Name() == "TryDownWrite", call.Pos(), st)
		case "UpRead", "UpWrite":
			a.release(ref, st)
		}
		return
	}

	// Callee summaries — direct, or the union over interface impls.
	callees := []*types.Func{fn}
	if impls := a.lo.impls[fn]; len(impls) > 0 {
		callees = impls
	}
	sub := a.substitution(call, fn)
	for _, callee := range callees {
		sum := a.lo.summaries[callee]
		if sum == nil {
			continue
		}
		// Releases first: unlock helpers drop the caller's lock.
		for ref := range sum.releases {
			if r := applySub(ref, sub); r != "" {
				delete(st, r)
			}
		}
		// Ordering: callee's transitive acquisitions against held locks.
		var acqs []lockRef
		for ref := range sum.acquires {
			acqs = append(acqs, ref)
		}
		sort.Strings(acqs)
		file, line := a.sitePos(call.Pos())
		for _, ref := range acqs {
			r := applySub(ref, sub)
			if r == "" {
				continue
			}
			site := sum.acquires[ref]
			if site.file == "" {
				site = sitePos{file, line}
			}
			if _, ok := a.sum.acquires[r]; !ok {
				a.sum.acquires[r] = site
			}
			for h := range st {
				if h != r {
					a.sum.pairs = append(a.sum.pairs, lockPair{from: h, to: r, file: site.file, line: site.line})
				}
			}
		}
		// Pairs discovered inside the callee, instantiated here.
		for _, p := range sum.pairs {
			from, to := applySub(p.from, sub), applySub(p.to, sub)
			if from == "" || to == "" || from == to {
				continue
			}
			a.sum.pairs = append(a.sum.pairs, lockPair{from: from, to: to, file: p.file, line: p.line})
		}
		// Locks the callee leaves held.
		for ref := range sum.heldExit {
			if r := applySub(ref, sub); r != "" {
				st[r] = true
			}
		}
	}
}

// substitution maps the callee's relative refs to the caller's refs.
func (a *lockAnalysis) substitution(call *ast.CallExpr, fn *types.Func) map[lockRef]lockRef {
	sub := make(map[lockRef]lockRef)
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			sub[recvRef] = a.exprRef(sel.X)
		}
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if isLockType(sig.Params().At(i).Type()) {
			sub[paramRef(i)] = a.exprRef(call.Args[i])
		}
	}
	return sub
}

// applySub resolves a callee-relative ref in the caller's frame.
func applySub(ref lockRef, sub map[lockRef]lockRef) lockRef {
	if isConcrete(ref) {
		return ref
	}
	return sub[ref]
}
