package ssa

// Numeric abstract interpretation over the SSA IR: a difference-bound
// domain (interval bounds are differences against a distinguished ZERO
// term) with widening at loop headers, plus the two interprocedural
// summaries fabproof rides on — per-function write effects (what a call
// may clobber) and true-return postconditions of boolean predicates
// (what a guard like canCoalesce establishes about its arguments).
//
// The engine is symbolic rather than purely numeric: every interesting
// quantity — a constant, a field's value at some program point, a len()
// of a slice field, an arithmetic result — is a *term*, and the state at
// a program point is a set of constraints `t_u - t_v <= c` between
// terms. An interval is the special case where one side is ZERO. Terms
// are allocated deterministically (memoized per value, per atom, per
// join point, per havoc event) so the fixpoint's state signatures are
// stable across sweeps and across -parallel worker counts.
//
// Soundness policy. Stores rebind the written atom and havoc everything
// below it; calls havoc what the callee's write summary says they may
// touch (everything, for unknown callees); loop-head joins go through
// per-(block, atom) join terms so widening compares like with like, and
// the join keeps only constraints provable in every incoming path.
// Arithmetic is modeled over the mathematical integers: unsigned wrap
// is assumed not to occur, which is exactly the "counters do not wrap
// in any reachable simulation" reading the dynamic tier enforces.
// Branch conditions are decomposed only when the condition value is
// written at the branch itself; a branch on a previously computed bool
// local refines only that bool, never its operands, so facts captured
// before an intervening store can not leak past it.

import (
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// absInf is the saturating infinity for difference bounds.
const absInf = int64(1) << 60

const zeroTerm = 0

func satAdd(a, b int64) int64 {
	if a >= absInf || b >= absInf {
		return absInf
	}
	if a <= -absInf || b <= -absInf {
		return -absInf
	}
	return a + b
}

// absDom allocates terms for one function analysis. All memo keys are
// derived from stable identities (value IDs, atom keys, block indexes)
// so repeated sweeps reuse the same term ids.
type absDom struct {
	f      *Func
	prog   *Program
	sums   *absSummaries
	nterms int
	names  []string

	valT  map[int]int
	atomT map[string]int
	joinT map[string]int
	evT   map[string]int
	cstT  map[int64]int

	events map[*IRBlock][]absEvent
}

func newAbsDom(f *Func, prog *Program, sums *absSummaries) *absDom {
	d := &absDom{
		f: f, prog: prog, sums: sums,
		valT: map[int]int{}, atomT: map[string]int{}, joinT: map[string]int{},
		evT: map[string]int{}, cstT: map[int64]int{},
		events: map[*IRBlock][]absEvent{},
	}
	d.term("zero")
	return d
}

func (d *absDom) term(name string) int {
	t := d.nterms
	d.nterms++
	d.names = append(d.names, name)
	return t
}

func (d *absDom) valTerm(v *Value) int {
	if t, ok := d.valT[v.ID]; ok {
		return t
	}
	t := d.term("v" + itoa(v.ID))
	d.valT[v.ID] = t
	return t
}

func (d *absDom) atomTerm(key string) int {
	if t, ok := d.atomT[key]; ok {
		return t
	}
	t := d.term("a:" + key)
	d.atomT[key] = t
	return t
}

func (d *absDom) joinTerm(b *IRBlock, key string) int {
	k := itoa(b.Index) + "|" + key
	if t, ok := d.joinT[k]; ok {
		return t
	}
	t := d.term("j:" + k)
	d.joinT[k] = t
	return t
}

func (d *absDom) eventTerm(key string) int {
	if t, ok := d.evT[key]; ok {
		return t
	}
	t := d.term("e:" + key)
	d.evT[key] = t
	return t
}

func (d *absDom) constTerm(c int64) int {
	if t, ok := d.cstT[c]; ok {
		return t
	}
	t := d.term("c" + itoa(int(c)))
	d.cstT[c] = t
	return t
}

// samePlace reports whether a and b denote the same storage location or
// the same constant: identical values, or structurally identical
// field/index/addr chains over samePlace bases and indexes.
func samePlace(a, b *Value) bool {
	a, b = chase(a), chase(b)
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case VFieldRead:
		return a.Obj == b.Obj && samePlace(a.Base, b.Base)
	case VIndexRead:
		if !samePlace(a.Base, b.Base) || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !samePlace(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case VConst:
		if a.Const == nil || b.Const == nil {
			return a.Const == b.Const // both the nil constant
		}
		return a.Const.Kind() == b.Const.Kind() && constant.Compare(a.Const, token.EQL, b.Const)
	case VOp:
		if a.Op != b.Op || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !samePlace(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// absEvent is one side-effecting step of a block: an instruction or a
// call in evaluation order.
type absEvent struct {
	in   *Instr
	call *Value
	pos  token.Pos
	key  string // stable id for havoc/event terms
}

func (d *absDom) blockEvents(b *IRBlock) []absEvent {
	if evs, ok := d.events[b]; ok {
		return evs
	}
	var evs []absEvent
	for i, c := range b.Calls {
		evs = append(evs, absEvent{call: c, pos: c.Pos, key: "b" + itoa(b.Index) + "c" + itoa(i)})
	}
	for i, in := range b.Instrs {
		if in.Kind == IExpr && in.Val != nil && in.Val.Kind == VCall {
			continue // the call event already covers it
		}
		evs = append(evs, absEvent{in: in, pos: in.Pos, key: "b" + itoa(b.Index) + "i" + itoa(i)})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	d.events[b] = evs
	return evs
}

// absEnv is the abstract state on one path: current atom bindings plus a
// difference-bound constraint graph. edge[u][v] = c means t_u - t_v <= c.
type absEnv struct {
	dom   *absDom
	bind  map[string]int
	typ   map[string]types.Type
	out   map[int]map[int]int64
	known map[int]bool
	// fresh names the last havoc-all event; atoms materialized after it
	// get per-generation terms so pre-call facts can not resurrect.
	fresh string
	// preds records predicate calls established true by branch
	// refinement on the current path.
	preds []predFact
}

type predFact struct {
	callee *types.Func
	args   []*Value
	recv   *Value
}

func newAbsEnv(d *absDom) *absEnv {
	return &absEnv{
		dom: d, bind: map[string]int{}, typ: map[string]types.Type{},
		out: map[int]map[int]int64{}, known: map[int]bool{},
	}
}

func (e *absEnv) clone() *absEnv {
	n := &absEnv{
		dom: e.dom, bind: make(map[string]int, len(e.bind)),
		typ:   make(map[string]types.Type, len(e.typ)),
		out:   make(map[int]map[int]int64, len(e.out)),
		known: make(map[int]bool, len(e.known)),
		fresh: e.fresh, preds: append([]predFact(nil), e.preds...),
	}
	for k, v := range e.bind {
		n.bind[k] = v
	}
	for k, v := range e.typ {
		n.typ[k] = v
	}
	for k, v := range e.known {
		n.known[k] = v
	}
	for u, m := range e.out {
		nm := make(map[int]int64, len(m))
		for v, c := range m {
			nm[v] = c
		}
		n.out[u] = nm
	}
	return n
}

func (e *absEnv) addLE(u, v int, c int64) {
	if c >= absInf {
		return
	}
	m := e.out[u]
	if m == nil {
		m = map[int]int64{}
		e.out[u] = m
	}
	if old, ok := m[v]; !ok || c < old {
		m[v] = c
	}
}

func (e *absEnv) addEq(u, v int) {
	e.addLE(u, v, 0)
	e.addLE(v, u, 0)
}

func (e *absEnv) setInfeasible() { e.addLE(zeroTerm, zeroTerm, -1) }

// sssp runs Bellman-Ford from src over the constraint graph. The bool
// result is false when a negative cycle is reachable from src (the env
// is infeasible along the queried relation).
func (e *absEnv) sssp(src int) (map[int]int64, bool) {
	dist := map[int]int64{src: 0}
	nodes := map[int]bool{src: true}
	for u, m := range e.out {
		nodes[u] = true
		for v := range m {
			nodes[v] = true
		}
	}
	n := len(nodes) + 1
	changed := true
	for i := 0; i < n && changed; i++ {
		changed = false
		for u, m := range e.out {
			du, ok := dist[u]
			if !ok {
				continue
			}
			for v, c := range m {
				nd := satAdd(du, c)
				if dv, ok := dist[v]; !ok || nd < dv {
					dist[v] = nd
					changed = true
				}
			}
		}
	}
	return dist, !changed
}

// diff returns the best provable bound on t_u - t_v (absInf when none,
// -absInf when the env is infeasible along the query).
func (e *absEnv) diff(u, v int) int64 {
	if u == v {
		// Still need cycle detection through u.
		dist, ok := e.sssp(u)
		if !ok {
			return -absInf
		}
		if d, has := dist[u]; has && d < 0 {
			return d
		}
		return 0
	}
	dist, ok := e.sssp(u)
	if !ok {
		return -absInf
	}
	if d, has := dist[v]; has {
		return d
	}
	return absInf
}

func (e *absEnv) infeasible() bool { return e.diff(zeroTerm, zeroTerm) < 0 }

// upper/lower bound the term against ZERO.
func (e *absEnv) upper(t int) int64 { return e.diff(t, zeroTerm) }
func (e *absEnv) lower(t int) int64 {
	d := e.diff(zeroTerm, t)
	if d >= absInf {
		return -absInf
	}
	return -d
}

// atom materializes the current term for an atom key, creating an entry
// (or post-havoc) term on first read.
func (e *absEnv) atom(key string, typ types.Type) int {
	if t, ok := e.bind[key]; ok {
		if typ != nil && e.typ[key] == nil {
			e.typ[key] = typ
		}
		return t
	}
	t := e.dom.atomTerm(e.fresh + "|" + key)
	e.bind[key] = t
	if typ != nil {
		e.typ[key] = typ
	}
	e.seedTypeFacts(t, typ, strings.HasSuffix(key, "#len"))
	return t
}

func (e *absEnv) seedTypeFacts(t int, typ types.Type, isLen bool) {
	if isLen || isUnsignedType(typ) {
		e.addLE(zeroTerm, t, 0)
	}
	if isBoolType(typ) {
		e.addLE(zeroTerm, t, 0)
		e.addLE(t, zeroTerm, 1)
	}
}

func isUnsignedType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok && t != nil {
		b, ok = t.Underlying().(*types.Basic)
	}
	return ok && b.Info()&types.IsUnsigned != 0
}

func isBoolType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok && t != nil {
		b, ok = t.Underlying().(*types.Basic)
	}
	return ok && b.Info()&types.IsBoolean != 0
}

func isNumericType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	if !ok && t != nil {
		b, ok = t.Underlying().(*types.Basic)
	}
	return ok && b.Info()&(types.IsInteger|types.IsUntyped) != 0
}

// constInt extracts v's integer constant, a bool's as 0 or 1.
func constInt(v *Value) (int64, bool) {
	switch {
	case v == nil:
		return 0, false
	case v.Kind == VZero:
		return 0, true
	case v.Const == nil:
		return 0, false
	case v.Const.Kind() == constant.Bool:
		if constant.BoolVal(v.Const) {
			return 1, true
		}
		return 0, true
	}
	return constant.Int64Val(constant.ToInt(v.Const))
}

func isNilConst(v *Value) bool {
	return v != nil && v.Kind == VConst && v.Const == nil
}

// lenArgKey returns the atom key of len(x)'s operand when x is keyable.
func lenArgKey(call *Value) (string, bool) {
	if call == nil || call.Kind != VCall || call.Builtin != "len" || len(call.Args) != 1 {
		return "", false
	}
	k, ok := atomKey(chase(call.Args[0]))
	if !ok {
		return "", false
	}
	return k + "#len", true
}

// termOf evaluates v to a term in e, adding v's defining constraints the
// first time this env lineage sees the term. Value-level constraints
// (constants, arithmetic over SSA operands) are immutable, so re-adding
// them after a join is always sound.
func (e *absEnv) termOf(f *Func, v *Value) int {
	v = chase(v)
	if v == nil {
		return e.dom.valTerm(&Value{ID: -1})
	}
	if c, ok := constInt(v); ok {
		t := e.dom.constTerm(c)
		if !e.known[t] {
			e.known[t] = true
			e.addLE(t, zeroTerm, c)
			e.addLE(zeroTerm, t, -c)
		}
		return t
	}
	switch v.Kind {
	case VFieldRead, VParam, VRecv, VGlobal:
		if key, ok := atomKey(v); ok {
			return e.atom(key, v.Type)
		}
	case VCall:
		if key, ok := lenArgKey(v); ok {
			return e.atom(key, nil)
		}
	case VPhi:
		// Constrained per incoming edge; never re-derive here.
		return e.dom.valTerm(v)
	case VOp:
		return e.opTerm(f, v)
	}
	t := e.dom.valTerm(v)
	if !e.known[t] {
		e.known[t] = true
		e.seedTypeFacts(t, v.Type, false)
	}
	return t
}

func (e *absEnv) opTerm(f *Func, v *Value) int {
	t := e.dom.valTerm(v)
	if e.known[t] {
		return t
	}
	e.known[t] = true
	e.seedTypeFacts(t, v.Type, false)
	switch v.Op {
	case token.INC, token.DEC:
		if len(v.Args) == 1 {
			a := e.termOf(f, v.Args[0])
			d := int64(1)
			if v.Op == token.DEC {
				d = -1
			}
			e.addLE(t, a, d)
			e.addLE(a, t, -d)
		}
	case token.ADD, token.SUB, token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(v.Args) == 2 {
			neg := v.Op == token.SUB || v.Op == token.SUB_ASSIGN
			x, y := v.Args[0], v.Args[1]
			if c, ok := constInt(y); ok {
				if neg {
					c = -c
				}
				a := e.termOf(f, x)
				e.addLE(t, a, c)
				e.addLE(a, t, -c)
			} else if c, ok := constInt(x); ok && !neg {
				a := e.termOf(f, y)
				e.addLE(t, a, c)
				e.addLE(a, t, -c)
			} else if !neg && isUnsignedType(chase(y).Type) {
				// x + unsigned: result >= x.
				a := e.termOf(f, x)
				e.addLE(a, t, 0)
			}
		}
	}
	return t
}

// --- refinement ---

// condIsFresh reports whether b's condition value is written at the
// branch itself (and may therefore be decomposed into operand facts).
func condIsFresh(b *IRBlock) bool {
	return b.cond != nil && b.CondV != nil &&
		b.CondV.Pos == b.cond.Pos()
}

// refine narrows e with "cond == want".
func (e *absEnv) refine(f *Func, b *IRBlock, want bool) {
	cond := chase(b.CondV)
	if cond == nil {
		return
	}
	if !condIsFresh(b) {
		e.refineBool(f, cond, want)
		return
	}
	e.refineValue(f, cond, want)
}

func (e *absEnv) refineValue(f *Func, cond *Value, want bool) {
	if c, ok := constInt(cond); ok && isBoolType(cond.Type) {
		if (c != 0) != want {
			e.setInfeasible()
		}
		return
	}
	if cond.Kind == VOp {
		switch cond.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			e.refineCompare(f, cond, want)
			return
		case token.NOT:
			if len(cond.Args) == 1 {
				e.refineValue(f, chase(cond.Args[0]), !want)
			}
			return
		}
	}
	e.refineBool(f, cond, want)
}

func (e *absEnv) refineBool(f *Func, cond *Value, want bool) {
	if cond == nil || !isBoolType(cond.Type) {
		return
	}
	t := e.termOf(f, cond)
	if want {
		e.addLE(zeroTerm, t, -1) // t >= 1
	} else {
		e.addLE(t, zeroTerm, 0) // t <= 0
	}
	if want && cond.Kind == VCall && cond.Callee != nil {
		e.refinePredicateCall(f, cond)
	}
}

// refinePredicateCall records that a module-defined boolean predicate
// returned true on this path, and imports the facts every true-returning
// path of the predicate establishes about the call's arguments.
func (e *absEnv) refinePredicateCall(f *Func, call *Value) {
	unit := e.dom.prog.ByObj[call.Callee]
	if unit == nil {
		return
	}
	e.preds = append(e.preds, predFact{callee: call.Callee, args: call.Args, recv: call.Base})
	common := e.dom.sums.trueFactsCommon(unit)
	for _, fact := range common {
		ta, ok1 := e.mapSummaryAtom(f, fact.a, call)
		tb, ok2 := e.mapSummaryAtom(f, fact.b, call)
		if ok1 && ok2 {
			e.addLE(ta, tb, fact.c)
		}
	}
}

// mapSummaryAtom maps a callee-side atom ("p:0.End", "r.x", "" for ZERO)
// onto a caller-side term through the call's operands.
func (e *absEnv) mapSummaryAtom(f *Func, a string, call *Value) (int, bool) {
	if a == "" {
		return zeroTerm, true
	}
	root, path := a, ""
	if i := strings.IndexAny(a, ".#"); i >= 0 {
		root, path = a[:i], a[i:]
	}
	var base *Value
	switch {
	case root == "r":
		base = call.Base
	case strings.HasPrefix(root, "p:"):
		i := atoiSafe(root[2:])
		if i < 0 || i >= len(call.Args) {
			return 0, false
		}
		base = call.Args[i]
	default:
		return 0, false
	}
	key, ok := atomKey(chase(base))
	if !ok {
		return 0, false
	}
	return e.atom(key+path, nil), true
}

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

// hasPredFact reports whether the current path established callee(args)
// == true with operands samePlace-equal to the probe.
func (e *absEnv) hasPredFact(callee *types.Func, recv *Value, args []*Value) bool {
	for _, p := range e.preds {
		if p.callee != callee || len(p.args) != len(args) {
			continue
		}
		if (p.recv == nil) != (recv == nil) || (recv != nil && !samePlace(p.recv, recv)) {
			continue
		}
		match := true
		for i := range args {
			if !samePlace(p.args[i], args[i]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func (e *absEnv) refineCompare(f *Func, cond *Value, want bool) {
	if len(cond.Args) != 2 {
		return
	}
	x, y := chase(cond.Args[0]), chase(cond.Args[1])
	if x == nil || y == nil {
		return
	}
	op := cond.Op
	if !want {
		op = negateCmp(op)
	}
	// Boolean equality folds into bool refinement.
	if isBoolType(x.Type) || isBoolType(y.Type) {
		cx, okx := constInt(x)
		cy, oky := constInt(y)
		switch {
		case okx && !oky:
			e.refineValue(f, y, (cx != 0) == (op == token.EQL))
		case oky && !okx:
			e.refineValue(f, x, (cy != 0) == (op == token.EQL))
		}
		return
	}
	if !isNumericType(x.Type) && !isNumericType(y.Type) {
		return
	}
	tx := e.termOf(f, x)
	ty := e.termOf(f, y)
	switch op {
	case token.LSS:
		e.addLE(tx, ty, -1)
	case token.LEQ:
		e.addLE(tx, ty, 0)
	case token.GTR:
		e.addLE(ty, tx, -1)
	case token.GEQ:
		e.addLE(ty, tx, 0)
	case token.EQL:
		e.addEq(tx, ty)
	case token.NEQ:
		// no difference-bound refinement
	}
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	}
	return op
}

// --- effects ---

// havocTerm strips every constraint mentioning t (used before re-pinning
// phi and havoc terms on a new path).
func (e *absEnv) havocTerm(t int) {
	delete(e.out, t)
	for _, m := range e.out {
		delete(m, t)
	}
}

// havocSubtree rebinds every atom at or under key to fresh terms.
// Element-pointer escapes pass keepLen=true: the callee can write the
// elements but can not change the slice header's length.
func (e *absEnv) havocSubtree(key, ev string, keepLen bool) {
	for k := range e.bind {
		if k != key && !strings.HasPrefix(k, key+".") && !strings.HasPrefix(k, key+"#") {
			continue
		}
		if keepLen && strings.HasSuffix(k, "#len") {
			continue
		}
		t := e.dom.eventTerm(ev + "|" + k)
		e.havocTerm(t)
		e.bind[k] = t
		e.seedTypeFacts(t, e.typ[k], strings.HasSuffix(k, "#len"))
	}
}

func (e *absEnv) havocAll(ev string) {
	for k := range e.bind {
		t := e.dom.eventTerm(ev + "|" + k)
		e.havocTerm(t)
		e.bind[k] = t
		e.seedTypeFacts(t, e.typ[k], strings.HasSuffix(k, "#len"))
	}
	e.fresh = ev
	e.preds = nil
}

// applyStore folds one IStore into the state.
func (e *absEnv) applyStore(f *Func, ev absEvent) {
	in := ev.in
	addr := in.Addr
	key, ok := atomKey(addr)
	if !ok || addr == nil {
		return
	}
	if ch := chase(addr); ch != nil && ch.Kind == VIndexRead {
		// x[i] = v: element contents change, the header does not.
		if bkey, bok := atomKey(chase(ch.Base)); bok {
			e.havocSubtree(bkey, ev.key, true)
		}
		return
	}
	val := chase(in.Val)
	// Appends to the stored slice itself track length exactly.
	if val != nil && val.Kind == VCall && val.Builtin == "append" && len(val.Args) >= 1 {
		if akey, aok := atomKey(chase(val.Args[0])); aok && akey == key {
			lt := e.atom(key+"#len", nil)
			e.havocSubtree(key, ev.key, false)
			nt := e.dom.eventTerm(ev.key + "|#len")
			e.havocTerm(nt)
			if val.Call != nil && val.Call.Ellipsis != token.NoPos {
				e.addLE(lt, nt, 0) // grows by an unknown amount
			} else {
				grow := int64(len(val.Args) - 1)
				e.addLE(nt, lt, grow)
				e.addLE(lt, nt, -grow)
			}
			e.addLE(zeroTerm, nt, 0)
			e.bind[key+"#len"] = nt
			return
		}
	}
	// Evaluate the stored value against the pre-store state.
	var nt int
	if isNilConst(val) && isSliceType(addrType(addr)) {
		e.havocSubtree(key, ev.key, false)
		lt := e.dom.eventTerm(ev.key + "|#len")
		e.havocTerm(lt)
		e.addLE(lt, zeroTerm, 0)
		e.addLE(zeroTerm, lt, 0)
		e.bind[key+"#len"] = lt
		nt = e.dom.eventTerm(ev.key)
		e.havocTerm(nt)
	} else {
		nt = e.termOf(f, val)
		e.havocSubtree(key, ev.key, false)
	}
	e.bind[key] = nt
	if addr.Type != nil && e.typ[key] == nil {
		e.typ[key] = addrType(addr)
	}
}

func addrType(addr *Value) types.Type {
	if addr == nil {
		return nil
	}
	return addr.Type
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// applyCall havocs what the callee may write, per the write summaries.
func (e *absEnv) applyCall(f *Func, ev absEvent) {
	call := ev.call
	if call.Builtin != "" {
		switch call.Builtin {
		case "copy", "delete":
			if len(call.Args) > 0 {
				if key, ok := atomKey(chase(call.Args[0])); ok {
					e.havocSubtree(key, ev.key, true)
				}
			}
		}
		return
	}
	callees := e.dom.prog.calleesOf(call)
	if len(callees) == 0 {
		e.havocAll(ev.key)
		return
	}
	for _, obj := range callees {
		unit := e.dom.prog.ByObj[obj]
		if unit == nil {
			// External callee: assume it writes through its operands.
			e.havocOperand(call.Base, "", ev.key)
			for _, a := range call.Args {
				e.havocOperand(a, "", ev.key)
			}
			continue
		}
		ws := e.dom.sums.writes(unit)
		if ws.havocAll {
			e.havocAll(ev.key)
			return
		}
		for _, p := range ws.prefixes {
			root, path := p, ""
			if i := strings.IndexAny(p, ".#"); i >= 0 {
				root, path = p[:i], p[i:]
			}
			switch {
			case root == "r":
				e.havocOperand(call.Base, path, ev.key)
			case strings.HasPrefix(root, "p:"):
				if i := atoiSafe(root[2:]); i >= 0 && i < len(call.Args) {
					e.havocOperand(call.Args[i], path, ev.key)
				}
			case strings.HasPrefix(root, "g:"):
				e.havocSubtree(p, ev.key, false)
			}
		}
	}
}

// havocOperand havocs the atoms a callee write through this operand can
// reach. Non-pointer scalars can not carry writes back.
func (e *absEnv) havocOperand(v *Value, path, ev string) {
	if v == nil {
		return
	}
	ch := chase(v)
	if ch == nil {
		return
	}
	if path == "" && !carriesWrites(v.Type) && !carriesWrites(ch.Type) {
		return
	}
	keepLen := false
	if ch.Kind == VIndexRead {
		// &slice[i]: the element escapes, the header does not.
		if b := chase(ch.Base); b != nil {
			if bk, ok := atomKey(b); ok {
				e.havocSubtree(bk, ev, true)
			}
		}
		return
	}
	if key, ok := atomKey(ch); ok {
		e.havocSubtree(key+path, ev, keepLen)
	}
}

func carriesWrites(t types.Type) bool {
	if t == nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Signature:
		return true
	}
	return true
}

// --- join and widening ---

// joinInto joins envs from incoming edges at block b. widen applies the
// loop-header widening against prev (the previous head state).
func absJoin(b *IRBlock, incoming []*absEnv, prev *absEnv, widen bool) *absEnv {
	if len(incoming) == 0 {
		return nil
	}
	d := incoming[0].dom
	if len(incoming) == 1 && !b.LoopHead {
		return incoming[0]
	}
	r := newAbsEnv(d)
	r.fresh = incoming[0].fresh
	for _, e := range incoming[1:] {
		if e.fresh != r.fresh {
			r.fresh = "join|" + itoa(b.Index)
		}
	}
	// Predicate facts survive only when present on every path.
	r.preds = commonPreds(incoming)

	// The joined binding for every atom bound on all paths; loop heads
	// always route through join terms so widening compares stable ids.
	keys := map[string]bool{}
	for _, e := range incoming {
		for k := range e.bind {
			keys[k] = true
		}
	}
	type mapping struct {
		joined int
		per    []int // term in each incoming env, -1 when unbound
	}
	maps := map[string]mapping{}
	var nodes []int
	nodes = append(nodes, zeroTerm)
	for k := range keys {
		per := make([]int, len(incoming))
		same := true
		first := -1
		for i, e := range incoming {
			t, ok := e.bind[k]
			if !ok {
				t = -1
			}
			per[i] = t
			if i == 0 {
				first = t
			} else if t != first {
				same = false
			}
		}
		var jt int
		if same && first >= 0 && !b.LoopHead {
			jt = first
		} else {
			jt = d.joinTerm(b, k)
		}
		maps[k] = mapping{joined: jt, per: per}
		r.bind[k] = jt
		for _, e := range incoming {
			if e.typ[k] != nil {
				r.typ[k] = e.typ[k]
				break
			}
		}
		nodes = append(nodes, jt)
	}
	// Phi terms defined at this block are constrained on the incoming
	// edges; keep their relations alive through the join.
	for _, phi := range b.Phis {
		nodes = append(nodes, d.valTerm(phi))
	}
	// Entry/ghost atom terms and constant terms carry seed facts and the
	// relation of current state to entry state (the containment proofs
	// compare final bindings against entry terms); keep them in the
	// closure so those constraints survive the join.
	for _, t := range d.atomT {
		nodes = append(nodes, t)
	}
	for _, t := range d.cstT {
		nodes = append(nodes, t)
	}
	sort.Ints(nodes)
	nodes = dedupInts(nodes)

	// src maps a joined node back to its per-env source term.
	byJoined := map[int][]int{}
	for _, m := range maps {
		byJoined[m.joined] = m.per
	}
	src := func(e int, t int) int {
		if per, ok := byJoined[t]; ok {
			return per[e]
		}
		return t
	}
	// Pairwise closure over the joined node set: keep a bound only when
	// every incoming env proves it.
	dists := make([]map[int]map[int]int64, len(incoming))
	for i, e := range incoming {
		dists[i] = map[int]map[int]int64{}
		for _, u := range nodes {
			su := src(i, u)
			if su < 0 {
				continue
			}
			dist, ok := e.sssp(su)
			if !ok {
				dist = nil // infeasible source: bounds are -inf (keep all)
			}
			dists[i][u] = dist
		}
	}
	for _, u := range nodes {
		for _, v := range nodes {
			if u == v {
				continue
			}
			bound := int64(-absInf)
			for i := range incoming {
				sv := src(i, v)
				du := dists[i][u]
				var c int64
				if du == nil {
					c = -absInf // infeasible path constrains nothing
				} else if sv < 0 {
					c = absInf
				} else if dv, ok := du[sv]; ok {
					c = dv
				} else {
					c = absInf
				}
				if c > bound {
					bound = c
				}
			}
			if bound < absInf {
				r.addLE(u, v, bound)
			}
		}
	}
	if widen && prev != nil {
		w := newAbsEnv(d)
		w.fresh = r.fresh
		w.preds = r.preds
		for k, v := range r.bind {
			w.bind[k] = v
		}
		for k, v := range r.typ {
			w.typ[k] = v
		}
		// Keep only the previous head constraints the new state still
		// implies; everything that grew goes to +inf.
		for u, m := range prev.out {
			for v, c := range m {
				if nc := r.diff(u, v); nc <= c {
					w.addLE(u, v, c)
				}
			}
		}
		return w
	}
	return r
}

func commonPreds(incoming []*absEnv) []predFact {
	if len(incoming) == 0 {
		return nil
	}
	var out []predFact
	for _, p := range incoming[0].preds {
		all := true
		for _, e := range incoming[1:] {
			if !e.hasPredFact(p.callee, p.recv, p.args) {
				all = false
				break
			}
		}
		if all {
			out = append(out, p)
		}
	}
	return out
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// signature canonicalizes the env for fixpoint change detection.
func (e *absEnv) signature() string {
	var sb strings.Builder
	keys := make([]string, 0, len(e.bind))
	for k := range e.bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(itoa(e.bind[k]))
		sb.WriteByte(';')
	}
	type edge struct {
		u, v int
		c    int64
	}
	var edges []edge
	for u, m := range e.out {
		for v, c := range m {
			edges = append(edges, edge{u, v, c})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].c < edges[j].c
	})
	for _, ed := range edges {
		sb.WriteString(itoa(ed.u))
		sb.WriteByte('>')
		sb.WriteString(itoa(ed.v))
		sb.WriteByte(':')
		sb.WriteString(itoa(int(ed.c)))
		sb.WriteByte(';')
	}
	sb.WriteString(e.fresh)
	return sb.String()
}

// --- driver ---

// absHooks receives the fixpoint state during the final replay pass.
// Hooks observe the state before the event's own effect applies.
type absHooks struct {
	seed    []absFact
	store   func(e *absEnv, b *IRBlock, in *Instr)
	call    func(e *absEnv, b *IRBlock, call *Value)
	ret     func(e *absEnv, b *IRBlock, in *Instr)
	blockNd func(e *absEnv, b *IRBlock) // after the block's last event
}

// absFact is a seed constraint atom(a) - atom(b) <= c; an empty name is
// the ZERO term.
type absFact struct {
	a, b string
	c    int64
}

// absMaxVisits caps worklist churn per block; blowing through it means
// widening failed to converge and the analysis reports imprecision
// rather than looping.
const absMaxVisits = 64

// absAnalyze runs the dataflow over f to fixpoint, then replays once
// with hooks. It returns false when the fixpoint did not stabilize (the
// caller must treat its obligations as unproven).
func absAnalyze(f *Func, prog *Program, sums *absSummaries, hooks absHooks) bool {
	if f == nil || len(f.Blocks) == 0 {
		return false
	}
	d := newAbsDom(f, prog, sums)
	entry := newAbsEnv(d)
	for _, fact := range hooks.seed {
		var ta, tb int
		if fact.a == "" {
			ta = zeroTerm
		} else {
			ta = entry.atom(fact.a, nil)
		}
		if fact.b == "" {
			tb = zeroTerm
		} else {
			tb = entry.atom(fact.b, nil)
		}
		entry.addLE(ta, tb, fact.c)
	}

	inEnv := map[*IRBlock]*absEnv{f.Entry: entry}
	outEnv := map[*IRBlock]*absEnv{}
	inSig := map[*IRBlock]string{f.Entry: entry.signature()}
	visits := map[*IRBlock]int{}

	order := f.order
	queue := append([]*IRBlock{}, order...)
	inQueue := map[*IRBlock]bool{}
	for _, b := range order {
		inQueue[b] = true
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b] = false
		in := inEnv[b]
		if in == nil {
			continue
		}
		visits[b]++
		if visits[b] > absMaxVisits {
			return false
		}
		env := in.clone()
		d.transferBlock(f, b, env, nil)
		outEnv[b] = env
		for _, s := range b.Succs {
			cand := d.gatherIn(f, s, outEnv, inEnv[s])
			if cand == nil {
				continue
			}
			sig := cand.signature()
			if sig != inSig[s] {
				inEnv[s] = cand
				inSig[s] = sig
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}

	// Replay with hooks over the stabilized in-states.
	for _, b := range order {
		in := inEnv[b]
		if in == nil {
			continue
		}
		env := in.clone()
		d.transferBlock(f, b, env, &hooks)
		if hooks.blockNd != nil {
			hooks.blockNd(env, b)
		}
	}
	return true
}

// gatherIn recomputes a block's in-state from every predecessor with a
// computed out-state, applying edge refinement and phi pinning.
func (d *absDom) gatherIn(f *Func, b *IRBlock, outEnv map[*IRBlock]*absEnv, prev *absEnv) *absEnv {
	var incoming []*absEnv
	for _, p := range b.Preds {
		out := outEnv[p]
		if out == nil {
			continue
		}
		e := out.clone()
		if p.CondV != nil && len(p.Succs) == 2 && p.Succs[0] != p.Succs[1] {
			if b == p.Succs[0] {
				e.refine(f, p, true)
			} else if b == p.Succs[1] {
				e.refine(f, p, false)
			}
		}
		pi := -1
		for i, pp := range b.Preds {
			if pp == p {
				pi = i
				break
			}
		}
		for _, phi := range b.Phis {
			pt := d.valTerm(phi)
			e.havocTerm(pt)
			if pi >= 0 && pi < len(phi.Args) && phi.Args[pi] != nil {
				at := e.termOf(f, phi.Args[pi])
				e.addEq(pt, at)
			}
		}
		incoming = append(incoming, e)
	}
	if len(incoming) == 0 {
		return nil
	}
	return absJoin(b, incoming, prev, b.LoopHead)
}

// transferBlock walks b's events, firing hooks (replay pass) before each
// event's effect.
func (d *absDom) transferBlock(f *Func, b *IRBlock, env *absEnv, hooks *absHooks) {
	for _, ev := range d.blockEvents(b) {
		switch {
		case ev.call != nil:
			if hooks != nil && hooks.call != nil {
				hooks.call(env, b, ev.call)
			}
			env.applyCall(f, ev)
		case ev.in != nil:
			switch ev.in.Kind {
			case IStore:
				if hooks != nil && hooks.store != nil {
					hooks.store(env, b, ev.in)
				}
				env.applyStore(f, ev)
			case IReturn:
				if hooks != nil && hooks.ret != nil {
					hooks.ret(env, b, ev.in)
				}
			case IGo:
				env.havocAll(ev.key)
			}
		}
	}
}

// --- interprocedural summaries ---

// absSummaries caches per-function write effects and predicate
// postconditions for one module run.
type absSummaries struct {
	prog *Program

	writeMemo map[*Func]*writeSummary
	writeBusy map[*Func]bool

	trueMemo map[*Func][][]absFact
	trueBusy map[*Func]bool
}

type writeSummary struct {
	prefixes []string
	havocAll bool
}

func newAbsSummaries(prog *Program) *absSummaries {
	return &absSummaries{
		prog:      prog,
		writeMemo: map[*Func]*writeSummary{},
		writeBusy: map[*Func]bool{},
		trueMemo:  map[*Func][][]absFact{},
		trueBusy:  map[*Func]bool{},
	}
}

// writes computes which alias classes f may store through: "r"-, "p:i"-
// or "g:"-rooted prefixes, or havocAll when a write escapes through
// state the classes can not name (heap pointers from calls, closures).
func (s *absSummaries) writes(f *Func) *writeSummary {
	if ws, ok := s.writeMemo[f]; ok {
		return ws
	}
	if s.writeBusy[f] {
		// Recursive cycle: be conservative for the in-progress frame.
		return &writeSummary{havocAll: true}
	}
	s.writeBusy[f] = true
	ws := &writeSummary{}
	add := func(p string) {
		for _, q := range ws.prefixes {
			if q == p {
				return
			}
		}
		ws.prefixes = append(ws.prefixes, p)
	}
	units := append([]*Func{f}, collectLits(f)...)
	for _, u := range units {
		for _, b := range u.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore || in.Addr == nil {
					continue
				}
				if p := writeClass(in.Addr); p != "" {
					if p == "*" {
						ws.havocAll = true
					} else if u == f {
						add(p)
					} else {
						// Writes from nested literals to the parent's
						// params/receiver still escape through the
						// closure; stay conservative.
						ws.havocAll = true
					}
				}
			}
			for _, call := range b.Calls {
				if call.Builtin != "" {
					continue
				}
				callees := s.prog.calleesOf(call)
				if len(callees) == 0 {
					ws.havocAll = true
					continue
				}
				for _, obj := range callees {
					unit := s.prog.ByObj[obj]
					if unit == nil {
						s.externalWrites(u, call, add, ws)
						continue
					}
					sub := s.writes(unit)
					if sub.havocAll {
						ws.havocAll = true
						continue
					}
					for _, p := range sub.prefixes {
						mapped, ok := mapPrefixThroughCall(p, call)
						if !ok {
							ws.havocAll = true
						} else if mapped != "" {
							add(mapped)
						}
					}
				}
			}
		}
	}
	delete(s.writeBusy, f)
	s.writeMemo[f] = ws
	return ws
}

// externalWrites models a callee outside the module: it may write
// through any pointer-carrying operand.
func (s *absSummaries) externalWrites(u *Func, call *Value, add func(string), ws *writeSummary) {
	operand := func(v *Value) {
		if v == nil || !carriesWrites(v.Type) {
			return
		}
		ac := AliasClass(v)
		if ac != "" {
			add(ac)
			return
		}
		ch := chase(v)
		if ch != nil {
			switch ch.Kind {
			case VComposite, VConst, VZero, VClosure:
				return // freshly built or inert: no caller-visible write
			}
		}
		ws.havocAll = true
	}
	operand(call.Base)
	for _, a := range call.Args {
		operand(a)
	}
}

// mapPrefixThroughCall rewrites a callee-side write class into the
// caller's frame through the call operands. Empty result with ok=true
// means the write lands in caller-local state nothing else aliases.
func mapPrefixThroughCall(p string, call *Value) (string, bool) {
	root, path := p, ""
	if i := strings.IndexAny(p, ".#"); i >= 0 {
		root, path = p[:i], p[i:]
	}
	var base *Value
	switch {
	case strings.HasPrefix(root, "g:"):
		return p, true
	case root == "r":
		base = call.Base
	case strings.HasPrefix(root, "p:"):
		i := atoiSafe(root[2:])
		if i < 0 || i >= len(call.Args) {
			return "", false
		}
		base = call.Args[i]
	default:
		return "", false
	}
	if base == nil {
		return "", false
	}
	if ac := AliasClass(base); ac != "" {
		return ac + path, true
	}
	ch := chase(base)
	if ch != nil {
		switch ch.Kind {
		case VComposite, VConst, VZero:
			return "", true // local, freshly built state
		case VIndexRead:
			// &slice[i]: the write lands in the slice's elements; name
			// the slice when it has a class.
			if b := chase(ch.Base); b != nil {
				if ac := AliasClass(b); ac != "" {
					return ac, true
				}
			}
		}
	}
	return "", false
}

func collectLits(f *Func) []*Func {
	var out []*Func
	var walk func(u *Func)
	walk = func(u *Func) {
		for _, l := range u.Lits {
			out = append(out, l)
			walk(l)
		}
	}
	walk(f)
	return out
}

// writeClass classifies a store address: "" for purely local stores, a
// class prefix for named state, "*" for writes the classes can not
// name (pointers produced by calls or loaded from other heap state).
func writeClass(addr *Value) string {
	if ac := AliasClass(addr); ac != "" {
		return ac
	}
	ch := chase(addr)
	if ch == nil {
		return "*"
	}
	switch ch.Kind {
	case VFieldRead, VIndexRead, VDeref:
		root := storeRoot(ch)
		if root == nil {
			return "*"
		}
		switch root.Kind {
		case VComposite, VZero, VConst:
			return "" // storage this frame created
		case VCall, VParam, VRecv, VGlobal, VFree, VPhi, VRangeVal, VRangeKey, VExtract, VOp:
			return "*"
		}
		return "*"
	}
	return "" // plain local variable
}

// trueFacts returns the predicate's true-return postcondition as
// disjuncts of facts over its parameter/receiver atoms — one disjunct
// per true-returning path.
func (s *absSummaries) trueFacts(f *Func) [][]absFact {
	if fs, ok := s.trueMemo[f]; ok {
		return fs
	}
	if s.trueBusy[f] {
		return nil
	}
	s.trueBusy[f] = true
	var disjuncts [][]absFact
	hooks := absHooks{
		ret: func(e *absEnv, b *IRBlock, in *Instr) {
			if len(in.Results) != 1 {
				return
			}
			r := chase(in.Results[0])
			if r == nil || !isBoolType(r.Type) {
				return
			}
			if c, ok := constInt(r); ok && c == 0 {
				return // returns false: not a true-path
			}
			path := e.clone()
			path.refineTrueResult(f, r)
			if path.infeasible() {
				return
			}
			disjuncts = append(disjuncts, path.projectParams())
		},
	}
	if !absAnalyze(f, s.prog, s, hooks) {
		disjuncts = nil
	}
	if len(disjuncts) > 6 {
		// Degenerate predicate: fall back to the common facts only.
		disjuncts = [][]absFact{intersectFacts(disjuncts)}
	}
	delete(s.trueBusy, f)
	s.trueMemo[f] = disjuncts
	return disjuncts
}

// trueFactsCommon joins the disjuncts: facts established on every
// true-returning path.
func (s *absSummaries) trueFactsCommon(f *Func) []absFact {
	return intersectFacts(s.trueFacts(f))
}

func intersectFacts(disjuncts [][]absFact) []absFact {
	if len(disjuncts) == 0 {
		return nil
	}
	var out []absFact
	for _, fact := range disjuncts[0] {
		bound := fact.c
		all := true
		for _, d := range disjuncts[1:] {
			found := false
			for _, g := range d {
				if g.a == fact.a && g.b == fact.b {
					if g.c > bound {
						bound = g.c
					}
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			out = append(out, absFact{fact.a, fact.b, bound})
		}
	}
	return out
}

// refineTrueResult adds "r == true" to the env, decomposing && chains
// and comparisons written in the return expression itself.
func (e *absEnv) refineTrueResult(f *Func, r *Value) {
	r = chase(r)
	if r == nil {
		return
	}
	if r.Kind == VOp {
		switch r.Op {
		case token.LAND:
			for _, a := range r.Args {
				e.refineTrueResult(f, chase(a))
			}
			return
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			e.refineCompare(f, r, true)
			return
		case token.NOT:
			if len(r.Args) == 1 {
				e.refineBool(f, chase(r.Args[0]), false)
			}
			return
		}
	}
	e.refineBool(f, r, true)
}

// projectParams extracts every provable difference bound between
// parameter/receiver-rooted atoms (and ZERO).
func (e *absEnv) projectParams() []absFact {
	keys := []string{""} // ZERO
	for k := range e.bind {
		if k == "r" || strings.HasPrefix(k, "r.") || strings.HasPrefix(k, "p:") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []absFact
	for _, a := range keys {
		ta := zeroTerm
		if a != "" {
			ta = e.bind[a]
		}
		dist, ok := e.sssp(ta)
		if !ok {
			continue
		}
		for _, b := range keys {
			if a == b {
				continue
			}
			tb := zeroTerm
			if b != "" {
				tb = e.bind[b]
			}
			if c, has := dist[tb]; has && c < absInf {
				out = append(out, absFact{a, b, c})
			}
		}
	}
	return out
}

// --- shared helpers for fabproof ---

// storeConstBool reports the stored value when it is a constant bool.
func storeConstBool(f *Func, in *Instr) (bool, bool) {
	v := chase(in.Val)
	if v == nil || !isBoolType(v.Type) {
		return false, false
	}
	if c, ok := constInt(v); ok {
		return c != 0, true
	}
	return false, false
}

// fieldAddr matches an IStore address against a specific struct field,
// returning the base value when it matches.
func fieldAddr(in *Instr, field *types.Var) (*Value, bool) {
	a := chase(in.Addr)
	if a == nil || a.Kind != VFieldRead || a.Obj != field {
		return nil, false
	}
	return a.Base, true
}
