package ssa

import (
	"fmt"
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
// every module implementation. Function-typed values (the handlers and
// overlaps passed to smp.Layer.Shoot) are not traced — the runtime
// lockdep covers those.

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

// lockMaxRounds caps the summary fixpoint. A round recomputes every
// summary from the previous ones, and a callee's new release can shrink a
// caller's held set, so rounds are not monotone; a run still changing
// after the cap is reported instead of trusted.
const lockMaxRounds = 50

// checkLockOrder runs the static lockdep.
func checkLockOrder(ctx *modCtx) []Finding {
	prog := ctx.program()
	lo := &lockOrder{ctx: ctx, prog: prog, summaries: make(map[*types.Func]*lockSummary)}

	// Fixpoint over function summaries.
	var findings []Finding
	for round := 1; ; round++ {
		var changed *Func
		for _, f := range prog.Funcs {
			if round == 1 {
				ctx.visited["lockorder"]++
			}
			if isLockPrimitive(f.Decl.Obj) {
				continue
			}
			sum := lo.analyze(f)
			if old := lo.summaries[f.Decl.Obj]; old == nil || !old.equal(sum) {
				lo.summaries[f.Decl.Obj] = sum
				if changed == nil {
					changed = f
				}
			}
		}
		if changed == nil {
			break
		}
		if round == lockMaxRounds {
			file, line := ctx.posLine(changed.Decl, changed.Decl.Decl.Pos())
			findings = append(findings, Finding{
				File: file, Line: line, Analyzer: "lockorder",
				Msg: fmt.Sprintf("lock summaries did not stabilize within %d rounds (%s still changing), so the acquisition orders are unproven",
					lockMaxRounds, funcIdent(changed.Decl)),
			})
			break
		}
	}

	// Function literals (task bodies, hooks) acquire their locks when they
	// run, not at their installation site; analyze each as its own unit
	// against the converged summaries.
	var allSums []*lockSummary
	for _, f := range prog.Funcs {
		if sum := lo.summaries[f.Decl.Obj]; sum != nil {
			allSums = append(allSums, sum)
		}
	}
	prog.eachUnit(func(f *Func) {
		if f.Lit != nil {
			allSums = append(allSums, lo.analyze(f))
		}
	})

	// Collect concrete edges: every summary's pairs plus call-site
	// instantiations already folded in during analysis.
	type edge struct{ from, to string }
	edges := make(map[edge]sitePos)
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
	return findings
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
	prog      *Program
	summaries map[*types.Func]*lockSummary
}

// lockAnalysis is the per-unit held-set dataflow.
type lockAnalysis struct {
	lo  *lockOrder
	f   *Func
	sum *lockSummary
}

type heldSet map[lockRef]bool

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

// analyze runs the held-set dataflow over one unit — a declared
// function, or a function literal (a daemon Task.Fn closure acquires its
// locks when the task runs, not when the constructor builds it) — under
// the current summaries.
func (lo *lockOrder) analyze(f *Func) *lockSummary {
	a := &lockAnalysis{lo: lo, f: f, sum: newLockSummary()}
	in := flowForward(f, make(heldSet), func(b *IRBlock, held heldSet) []heldSet {
		st := held.clone()
		// A TryDown* branch condition acquires only on its success edge;
		// deferred calls run at exit.
		try := tryDownCond(b)
		for _, call := range b.Calls {
			if call != try && !call.Deferred {
				a.applyCall(call, st)
			}
		}
		outs := make([]heldSet, len(b.Succs))
		for i := range outs {
			outs[i] = st
		}
		if try != nil && len(outs) == 2 {
			outs[0] = st.clone()
			a.acquire(a.ref(try.Base), try.Pos, outs[0])
		}
		return outs
	}, unionJoin[heldSet])

	exit := in[f.Exit].clone()
	// Deferred calls run at exit, releasing what they release.
	for _, d := range f.Defers {
		a.applyCall(d, exit)
	}
	for ref := range exit {
		a.sum.heldExit[ref] = true
	}
	return a.sum
}

// ref resolves a lock value to its canonical reference: the unit's
// receiver or parameter, the struct field or accessor that holds it, or
// "" when its class is unknown. Copies and phis whose operands agree are
// the same lock.
func (a *lockAnalysis) ref(v *Value) lockRef { return lockRefOf(v, nil) }

// lockRefOf is ref; seen guards the phi cycles of loops.
func lockRefOf(v *Value, seen map[*Value]bool) lockRef {
	v = chase(v)
	if v == nil {
		return ""
	}
	switch v.Kind {
	case VRecv:
		return recvRef
	case VParam:
		return paramRef(v.ResIdx)
	case VFieldRead:
		if n := namedType(v.Base.Type); n != nil && n.Obj().Pkg() != nil {
			return classRef(n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + v.Obj.Name())
		}
	case VCall:
		// Accessor call returning the lock: class by the accessor.
		if v.Callee != nil {
			if r := v.Callee.Type().(*types.Signature).Recv(); r != nil {
				if n := namedType(r.Type()); n != nil && n.Obj().Pkg() != nil {
					return classRef(n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + v.Callee.Name())
				}
			}
		}
	case VPhi:
		if seen == nil {
			seen = make(map[*Value]bool)
		}
		if seen[v] {
			return ""
		}
		seen[v] = true
		var agreed lockRef
		for _, arg := range v.Args {
			if arg == v {
				continue
			}
			r := lockRefOf(arg, seen)
			if r == "" || (agreed != "" && r != agreed) {
				return ""
			}
			agreed = r
		}
		return agreed
	}
	return ""
}

// tryDownCond returns b's branch condition when it is a bare TryDown*
// call.
func tryDownCond(b *IRBlock) *Value {
	c := b.CondV
	if c == nil || c.Kind != VCall || c.Callee == nil || !isLockPrimitive(c.Callee) {
		return nil
	}
	if c.Callee.Name() != "TryDownRead" && c.Callee.Name() != "TryDownWrite" {
		return nil
	}
	return c
}

// acquire registers an acquisition: ordering pairs against everything
// held, then the lock joins the held set.
func (a *lockAnalysis) acquire(ref lockRef, pos token.Pos, st heldSet) {
	if ref == "" {
		return
	}
	file, line := a.lo.ctx.posLine(a.f.Decl, pos)
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

// applyCall folds a callee's lock effects into the caller's state.
func (a *lockAnalysis) applyCall(call *Value, st heldSet) {
	fn := call.Callee
	if fn == nil {
		return
	}
	// Lock primitives.
	if isLockPrimitive(fn) {
		ref := a.ref(call.Base)
		switch fn.Name() {
		case "DownRead", "DownWrite", "TryDownRead", "TryDownWrite":
			// A TryDown* outside condition position (handled there) is
			// conservatively treated as acquired.
			a.acquire(ref, call.Pos, st)
		case "UpRead", "UpWrite":
			a.release(ref, st)
		}
		return
	}

	// Callee summaries — direct, or the union over interface impls.
	for _, callee := range a.lo.prog.calleesOf(call) {
		sum := a.lo.summaries[callee]
		if sum == nil {
			continue
		}
		// Releases first: unlock helpers drop the caller's lock.
		for ref := range sum.releases {
			if r := a.inCaller(call, ref); r != "" {
				delete(st, r)
			}
		}
		// Ordering: callee's transitive acquisitions against held locks.
		var acqs []lockRef
		for ref := range sum.acquires {
			acqs = append(acqs, ref)
		}
		sort.Strings(acqs)
		for _, ref := range acqs {
			r := a.inCaller(call, ref)
			if r == "" {
				continue
			}
			site := sum.acquires[ref]
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
			from, to := a.inCaller(call, p.from), a.inCaller(call, p.to)
			if from == "" || to == "" || from == to {
				continue
			}
			a.sum.pairs = append(a.sum.pairs, lockPair{from: from, to: to, file: p.file, line: p.line})
		}
		// Locks the callee leaves held.
		for ref := range sum.heldExit {
			if r := a.inCaller(call, ref); r != "" {
				st[r] = true
			}
		}
	}
}

// inCaller resolves a callee-relative ref in the caller's frame at call:
// the receiver, or the argument of a lock-typed parameter.
func (a *lockAnalysis) inCaller(call *Value, ref lockRef) lockRef {
	sig := call.Callee.Type().(*types.Signature)
	switch {
	case isConcrete(ref):
		return ref
	case ref == recvRef:
		if sig.Recv() != nil {
			return a.ref(call.Base)
		}
	default:
		i := atoiSafe(strings.TrimPrefix(ref, "p:"))
		if i >= 0 && i < sig.Params().Len() && i < len(call.Args) && isLockType(sig.Params().At(i).Type()) {
			return a.ref(call.Args[i])
		}
	}
	return ""
}

// atoiSafe parses a parameter ref's decimal index, -1 when it is not one.
func atoiSafe(s string) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return -1
		}
		n = n*10 + int(r-'0')
	}
	return n
}
