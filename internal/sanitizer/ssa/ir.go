package ssa

import (
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// This file lowers the per-function CFG (cfg.go builds its IRBlocks) into
// a def-use SSA form. The IR is built with the marker-free variant of
// Braun et al.'s simple-and-efficient SSA construction: variables are read
// on demand, and loop headers are sealed once every back edge has been
// filled. Once every block is sealed, each phi that merges only one value
// is replaced by that value, so the phis left are the minimal ones: they
// stand at joins that actually merge distinct definitions.
//
// Design choices the analyzers rely on:
//
//   - Every expression evaluates to a Value; Values form a DAG (plus phi
//     cycles) whose edges are Args/Base, so "where could this come from"
//     is a graph walk rather than a re-derivation from syntax.
//   - Address-of and pointer-deref are passthrough-shaped (the Value keeps
//     its own kind but analyses follow Base), which matches how the
//     simulated kernel passes descriptors around: *T and T alias.
//   - Side effects are explicit: calls, stores (to fields, globals, index
//     expressions and captured variables), sends, returns, go and defer
//     each produce an Instr in block order, so path-sensitive analyses
//     replay a block by folding its Instrs.
//   - One place key: atomKey maps a Value to a storage key — params
//     ("p:0"), receivers ("r"), globals ("g:pkg.name"), a local value's
//     own identity ("v12") and field chains off those ("r.queue").
//     AliasClass is its rooted form, the keys without a local root,
//     giving interprocedural summaries a common vocabulary without a
//     points-to analysis.
//   - What type info and syntax know about an expression is recorded once,
//     here: a value's constant (Const), the fields a struct literal sets
//     (Fields), the function a function or method value names (Func), and
//     whether a block lies in a map-range body (IRBlock.MapRange). The
//     analyzers read these instead of re-reading the syntax.

// ValueKind discriminates Value.
type ValueKind uint8

const (
	// VUnknown is an expression the lowering does not model.
	VUnknown ValueKind = iota
	// VZero is the zero value of a declared-without-init variable.
	VZero
	// VConst is an untyped or typed constant (including nil).
	VConst
	// VParam and VRecv are the function's own bindings.
	VParam
	VRecv
	// VFree is a variable captured from an enclosing function.
	VFree
	// VGlobal is a read of a package-level variable.
	VGlobal
	// VPhi merges one definition per predecessor at a join.
	VPhi
	// VCall is the result of a call (ResIdx selects among multiple results).
	VCall
	// VExtract projects result ResIdx out of a multi-result VCall.
	VExtract
	// VFieldRead is x.f (Obj is the field, Base the struct value).
	VFieldRead
	// VIndexRead is x[i] (Base is x).
	VIndexRead
	// VDeref is *x, VAddr is &x; both are passthroughs over Base.
	VDeref
	VAddr
	// VOp is any other operator expression (binary, unary, type assert).
	VOp
	// VComposite is a composite literal; Args are the element values.
	VComposite
	// VRangeKey/VRangeVal are per-iteration range bindings over Base.
	VRangeKey
	VRangeVal
	// VClosure is a func literal value; Unit is its lowered body.
	VClosure
)

// Value is one SSA value.
type Value struct {
	ID   int
	Kind ValueKind
	Type types.Type
	Pos  token.Pos
	// Expr is the defining expression (nil for synthetic values).
	Expr ast.Expr
	// Call/Callee/Builtin describe VCall: the site, the resolved callee
	// (nil for func-typed values) and the builtin name ("append", "copy",
	// "make", ...) when the callee is universe-scoped.
	Call    *ast.CallExpr
	Callee  *types.Func
	Builtin string
	ResIdx  int
	// Const is the value type info gives a literal, a named constant or a
	// constant-valued operator or call; nil for the nil constant and for
	// every value that is not constant.
	Const constant.Value
	// Fields, on a struct VComposite, is the field each element sets,
	// keyed or positional, aligned with Args.
	Fields []*types.Var
	// Func is the function a function or method value names.
	Func *types.Func
	// Deferred marks a VCall that a defer statement postpones to the
	// unit's exit: it stays in its block's Calls but runs from Func.Defers.
	Deferred bool
	// Op is the operator token for VOp values lowered from unary/binary
	// expressions, ++/-- statements (INC/DEC) and compound assignments
	// (ADD_ASSIGN, ...); token.ILLEGAL when the op is not operator-shaped.
	Op token.Token
	// Args are operand values: phi operands (aligned with Block.Preds),
	// call arguments, composite elements, operator operands.
	Args []*Value
	// Base is the receiver/base value for field/index/deref/addr/range and
	// method calls.
	Base *Value
	// Obj is the variable this value binds or reads: the parameter,
	// captured or global variable, the field object for VFieldRead, or the
	// variable a phi merges.
	Obj *types.Var
	// Block is the defining block of a phi, a select-arm receive or a
	// range binding (the loop head that rebinds it every iteration).
	Block *IRBlock
	// Unit is the lowered body of a VClosure.
	Unit *Func
}

// field returns the element a struct literal sets for the named field, or
// nil when the literal leaves the field out.
func (v *Value) field(name string) *Value {
	for i, fld := range v.Fields {
		if fld != nil && fld.Name() == name {
			return v.Args[i]
		}
	}
	return nil
}

// InstrKind discriminates Instr.
type InstrKind uint8

const (
	// IExpr evaluates Val for effect (calls in statement position).
	IExpr InstrKind = iota
	// IStore writes Val through the place described by Addr (a
	// VFieldRead/VIndexRead/VGlobal/VDeref/VFree-shaped value).
	IStore
	// IReturn leaves the function with Results.
	IReturn
	// ISend sends Val on channel Addr.
	ISend
	// IGo and IDefer launch/defer the call Val.
	IGo
	IDefer
)

// Instr is one side-effecting instruction.
type Instr struct {
	Kind    InstrKind
	Val     *Value
	Addr    *Value
	Results []*Value
	Pos     token.Pos
}

// IRBlock is one straight-line run of the unit: Index is its creation
// order, and a block ending in a condition has Succs {true, false}.
type IRBlock struct {
	Index int
	Preds []*IRBlock
	Succs []*IRBlock
	// Phis are the join values defined at this block head.
	Phis []*Value
	// Instrs replay the block's side effects in order.
	Instrs []*Instr
	// CondV is the value of the atomic branch condition ending the block.
	CondV *Value
	// SelectComm marks the entry of a select communication clause: which
	// arm runs is scheduling-dependent, so values bound there are
	// nondeterminism sources for the detflow taint analysis.
	SelectComm bool
	// MapRange marks a block in the body of a range over a map, or in a
	// func literal written there.
	MapRange bool
	// Range, on a range-loop head, is the ranged operand; the head rebinds
	// the loop's VRangeKey/VRangeVal (Base Range) on every iteration.
	Range *Value
	// Calls lists the block's VCall values in evaluation order, so
	// path-sensitive analyses replay call effects without re-walking AST.
	Calls []*Value

	// nodes are the block's AST nodes in evaluation order; cond, when
	// set, is the atomic branch condition ending the block.
	nodes []ast.Node
	cond  ast.Expr
}

// Func is the SSA form of one function body (declaration or literal).
type Func struct {
	// Decl is the enclosing declaration; for a literal unit it is the
	// declaration the literal appears in.
	Decl FuncDecl
	// Lit is non-nil when this unit lowers a func literal body.
	Lit                    *ast.FuncLit
	Sig                    *types.Signature
	Blocks                 []*IRBlock
	Entry, Exit, PanicExit *IRBlock
	// order lists the blocks reachable from Entry in reverse postorder.
	order []*IRBlock
	// Defers lists deferred calls in source order (applied at exit).
	Defers []*Value
	// Lits lists the literal units nested directly in this body.
	Lits []*Func

	info   *types.Info
	values []*Value
	defs   map[*types.Var]map[*IRBlock]*Value
	sealed map[*IRBlock]bool
	filled map[*IRBlock]bool
	params map[*types.Var]*Value
}

// Name labels the unit for reports.
func (f *Func) Name() string {
	if f.Lit != nil {
		return "the function literal in " + f.Decl.Decl.Name.Name
	}
	return f.Decl.Decl.Name.Name
}

// buildFunc lowers one declared function body.
func buildFunc(fd FuncDecl) *Func {
	sig, _ := fd.Obj.Type().(*types.Signature)
	return lowerBody(fd, nil, sig, fd.Decl.Body, false)
}

// lowerBody builds the CFG and SSA form for body; lit is non-nil for
// literal units, and mapRange marks one written in a map-range body.
func lowerBody(fd FuncDecl, lit *ast.FuncLit, sig *types.Signature, body *ast.BlockStmt, mapRange bool) *Func {
	f := &Func{
		Decl: fd, Lit: lit, Sig: sig,
		info:   fd.Pkg.Info,
		defs:   make(map[*types.Var]map[*IRBlock]*Value),
		sealed: make(map[*IRBlock]bool),
		filled: make(map[*IRBlock]bool),
		params: make(map[*types.Var]*Value),
	}
	buildCFG(f, body, mapRange)

	// Bind the receiver and parameters in the entry block.
	if sig != nil {
		if r := sig.Recv(); r != nil {
			v := f.newValue(VRecv, r.Type(), r.Pos())
			v.Obj = r
			f.params[r] = v
			f.writeVar(r, f.Entry, v)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			v := f.newValue(VParam, p.Type(), p.Pos())
			v.Obj = p
			v.ResIdx = i
			f.params[p] = v
			f.writeVar(p, f.Entry, v)
		}
	}

	// Fill blocks in reverse postorder; only back-edge targets stay
	// unsealed past their fill, and they are sealed at the end.
	f.order = f.rpo()
	for _, b := range f.order {
		f.trySeal(b)
		f.fill(b)
	}
	for _, b := range f.Blocks {
		if !f.filled[b] {
			f.fill(b) // dead code: still lowered so scans see it
		}
	}
	for _, b := range f.Blocks {
		if !f.sealed[b] {
			f.seal(b)
		}
	}
	f.removeTrivialPhis()
	slices.SortFunc(f.Defers, func(a, b *Value) int { return cmp.Compare(a.Pos, b.Pos) })
	return f
}

// rpo returns the reachable blocks in reverse postorder from entry.
func (f *Func) rpo() []*IRBlock {
	seen := make(map[*IRBlock]bool)
	var post []*IRBlock
	var walk func(b *IRBlock)
	walk = func(b *IRBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		post = append(post, b)
	}
	walk(f.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// flowForward runs a forward dataflow over f's blocks until no in-state
// changes: every reachable block is visited once in reverse postorder, even
// when the state reaching it is empty, and again whenever its in-state
// changes after that. transfer maps a block's in-state to one out-state
// per successor (in Succs order); join folds an out-state into a
// successor's in-state. Neither may modify a state it is given, since
// stored states are shared. It returns each reached block's fixpoint
// in-state.
func flowForward[S any](f *Func, entry S, transfer func(b *IRBlock, in S) []S, join func(in, out S) (S, bool)) map[*IRBlock]S {
	in := map[*IRBlock]S{f.Entry: entry}
	// In reverse postorder a block's first visit follows its first
	// predecessor's, so every queued block has an in-state.
	work := append([]*IRBlock(nil), f.order...)
	queued := make(map[*IRBlock]bool, len(work))
	for _, b := range work {
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		for i, out := range transfer(b, in[b]) {
			s := b.Succs[i]
			if prev, seen := in[s]; seen {
				var changed bool
				if out, changed = join(prev, out); !changed {
					continue
				}
			}
			in[s] = out
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// unionJoin is flowForward's join for may-analyses over maps: it adds the
// entries of out whose keys in lacks, keeping in's entry on a clash, and
// returns a new map when any was missing.
func unionJoin[M ~map[K]V, K comparable, V any](in, out M) (M, bool) {
	var merged M
	for k, v := range out {
		if _, ok := in[k]; !ok {
			if merged == nil {
				merged = maps.Clone(in)
			}
			merged[k] = v
		}
	}
	if merged == nil {
		return in, false
	}
	return merged, true
}

func (f *Func) trySeal(b *IRBlock) {
	if f.sealed[b] {
		return
	}
	for _, p := range b.Preds {
		if !f.filled[p] {
			return
		}
	}
	f.seal(b)
}

// seal gives the phis of b, all read before b was sealed, their operands
// in the order they were made, so value IDs do not depend on map order.
func (f *Func) seal(b *IRBlock) {
	for _, phi := range b.Phis {
		f.addPhiOperands(phi.Obj, phi)
	}
	f.sealed[b] = true
}

func (f *Func) newValue(k ValueKind, t types.Type, pos token.Pos) *Value {
	v := &Value{ID: len(f.values), Kind: k, Type: t, Pos: pos}
	f.values = append(f.values, v)
	return v
}

// Values lists every value of the unit.
func (f *Func) Values() []*Value { return f.values }

// eachBinding visits every value a local variable of f was bound to: its
// definitions and the phis merging them. A call result outside this set
// and never used as an operand was dropped where it was computed.
func (f *Func) eachBinding(visit func(*Value)) {
	for _, byBlock := range f.defs {
		for _, v := range byBlock {
			visit(v)
		}
	}
}

func (f *Func) writeVar(v *types.Var, b *IRBlock, val *Value) {
	if f.defs[v] == nil {
		f.defs[v] = make(map[*IRBlock]*Value)
	}
	f.defs[v][b] = val
}

// readVar resolves the reaching definition of v at the head-to-current
// point of b, inserting phis on demand (Braun SSA construction).
func (f *Func) readVar(v *types.Var, b *IRBlock) *Value {
	if val := f.defs[v][b]; val != nil {
		return val
	}
	var val *Value
	switch {
	case f.sealed[b] && len(b.Preds) == 1:
		val = f.readVar(v, b.Preds[0])
	case f.sealed[b] && len(b.Preds) == 0:
		val = f.initialValue(v)
	default:
		val = f.newValue(VPhi, v.Type(), v.Pos())
		val.Obj, val.Block = v, b
		b.Phis = append(b.Phis, val)
		f.writeVar(v, b, val) // break read cycles through loops
		if f.sealed[b] {
			f.addPhiOperands(v, val)
		}
	}
	f.writeVar(v, b, val)
	return val
}

func (f *Func) addPhiOperands(v *types.Var, phi *Value) {
	for _, p := range phi.Block.Preds {
		phi.Args = append(phi.Args, f.readVar(v, p))
	}
}

// removeTrivialPhis replaces every phi that merges only one value by that
// value, until none is left: wherever it is an operand, a condition, a
// ranged operand or a variable's definition. The phi then leaves Phis and
// Values; every other value keeps its ID. A phi merges one value when its
// operands are itself, that value, or undefined: a phi reachable only
// from a block without predecessors merges none and stays, in dead code.
// On the reducible graphs of Go code without goto, what remains is
// minimal.
func (f *Func) removeTrivialPhis() {
	repl := make(map[*Value]*Value)
	undef := make(map[*Value]bool)
	sub := func(v *Value) *Value {
		for v != nil && repl[v] != nil {
			v = repl[v]
		}
		return v
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
		next:
			for _, phi := range b.Phis {
				if repl[phi] != nil || undef[phi] {
					continue
				}
				var same *Value
				for _, a := range phi.Args {
					if a = sub(a); a == phi || a == same || undef[a] {
						continue
					}
					if same != nil {
						continue next // merges two values
					}
					same = a
				}
				if same == nil {
					undef[phi] = true
				} else {
					repl[phi] = same
				}
				changed = true
			}
		}
	}
	if len(repl) == 0 {
		return
	}
	gone := func(v *Value) bool { return repl[v] != nil }
	f.values = slices.DeleteFunc(f.values, gone)
	for _, v := range f.values {
		for i, a := range v.Args {
			v.Args[i] = sub(a)
		}
		v.Base = sub(v.Base)
	}
	for _, b := range f.Blocks {
		b.Phis = slices.DeleteFunc(b.Phis, gone)
		for _, in := range b.Instrs {
			in.Val, in.Addr = sub(in.Val), sub(in.Addr)
			for i, r := range in.Results {
				in.Results[i] = sub(r)
			}
		}
		b.CondV, b.Range = sub(b.CondV), sub(b.Range)
	}
	for _, byBlock := range f.defs {
		for b, v := range byBlock {
			byBlock[b] = sub(v)
		}
	}
}

// initialValue models a variable read that reaches the unit's entry with
// no binding: captured variables and package-level globals.
func (f *Func) initialValue(v *types.Var) *Value {
	if pv, ok := f.params[v]; ok {
		return pv
	}
	if isPackageLevel(v) {
		g := f.newValue(VGlobal, v.Type(), v.Pos())
		g.Obj = v
		return g
	}
	fv := f.newValue(VFree, v.Type(), v.Pos())
	fv.Obj = v
	return fv
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// fill lowers every node of b in order.
func (f *Func) fill(b *IRBlock) {
	if f.filled[b] {
		return
	}
	f.filled[b] = true
	for _, n := range b.nodes {
		f.lowerNode(b, n)
	}
	if b.cond != nil {
		b.CondV = f.evalExpr(b, b.cond)
	}
}

func (f *Func) emit(b *IRBlock, in *Instr) { b.Instrs = append(b.Instrs, in) }

// lowerNode lowers one CFG node (a statement or a bare expression).
func (f *Func) lowerNode(b *IRBlock, n ast.Node) {
	switch v := n.(type) {
	case ast.Expr:
		if v != b.cond { // conditions are evaluated once, at block end
			f.evalExpr(b, v)
		}
	case *ast.AssignStmt:
		f.lowerAssign(b, v)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			f.lowerGenDecl(b, gd)
		}
	case *ast.IncDecStmt:
		old := f.evalExpr(b, v.X)
		nv := f.newValue(VOp, typeOf(f.info, v.X), v.Pos())
		nv.Expr = v.X
		nv.Op = v.Tok
		nv.Args = []*Value{old}
		f.assignTo(b, v.X, nv)
	case *ast.ExprStmt:
		val := f.evalExpr(b, v.X)
		f.emit(b, &Instr{Kind: IExpr, Val: val, Pos: v.Pos()})
	case *ast.ReturnStmt:
		var results []*Value
		if len(v.Results) == 1 && f.Sig != nil && f.Sig.Results().Len() > 1 {
			call := f.evalExpr(b, v.Results[0])
			for i := 0; i < f.Sig.Results().Len(); i++ {
				results = append(results, f.extract(call, i))
			}
		} else if len(v.Results) > 0 {
			for _, r := range v.Results {
				results = append(results, f.evalExpr(b, r))
			}
		} else if f.Sig != nil {
			// Naked return: read the named result variables.
			for i := 0; i < f.Sig.Results().Len(); i++ {
				if r := f.Sig.Results().At(i); r.Name() != "" {
					results = append(results, f.readVar(r, b))
				}
			}
		}
		f.emit(b, &Instr{Kind: IReturn, Results: results, Pos: v.Pos()})
	case *ast.SendStmt:
		ch := f.evalExpr(b, v.Chan)
		val := f.evalExpr(b, v.Value)
		f.emit(b, &Instr{Kind: ISend, Addr: ch, Val: val, Pos: v.Pos()})
	case *ast.GoStmt:
		call := f.evalExpr(b, v.Call)
		f.emit(b, &Instr{Kind: IGo, Val: call, Pos: v.Pos()})
	case *ast.DeferStmt:
		call := f.evalExpr(b, v.Call)
		call.Deferred = true
		f.Defers = append(f.Defers, call) // sorted into source order at the end
		f.emit(b, &Instr{Kind: IDefer, Val: call, Pos: v.Pos()})
	case *ast.RangeStmt:
		x := f.evalExpr(b, v.X)
		b.Range = x
		if kv := identObj(f.info, v.Key); kv != nil {
			k := f.newValue(VRangeKey, kv.Type(), v.Key.Pos())
			k.Obj, k.Base, k.Expr, k.Block = kv, x, v.X, b
			f.writeVar(kv, b, k)
		}
		if v.Value != nil {
			if vv := identObj(f.info, v.Value); vv != nil {
				e := f.newValue(VRangeVal, vv.Type(), v.Value.Pos())
				e.Obj, e.Base, e.Expr, e.Block = vv, x, v.X, b
				f.writeVar(vv, b, e)
			}
		}
	default:
		// Labeled/branch/empty statements carry no values.
	}
}

func (f *Func) lowerGenDecl(b *IRBlock, gd *ast.GenDecl) {
	if gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj, _ := f.info.Defs[name].(*types.Var)
			if obj == nil {
				continue
			}
			var val *Value
			switch {
			case len(vs.Values) == len(vs.Names):
				val = f.evalExpr(b, vs.Values[i])
			case len(vs.Values) == 1:
				val = f.extract(f.evalExpr(b, vs.Values[0]), i)
			default:
				val = f.newValue(VZero, obj.Type(), name.Pos())
				val.Obj = obj
			}
			f.writeVar(obj, b, val)
		}
	}
}

func (f *Func) lowerAssign(b *IRBlock, as *ast.AssignStmt) {
	var rhs []*Value
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call := f.evalExpr(b, as.Rhs[0])
		for i := range as.Lhs {
			rhs = append(rhs, f.extract(call, i))
		}
	} else {
		for _, r := range as.Rhs {
			rhs = append(rhs, f.evalExpr(b, r))
		}
	}
	for i, l := range as.Lhs {
		if i >= len(rhs) {
			break
		}
		val := rhs[i]
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment folds the old value in.
			old := f.evalExpr(b, l)
			nv := f.newValue(VOp, typeOf(f.info, l), as.Pos())
			nv.Expr = l
			nv.Op = as.Tok
			nv.Args = []*Value{old, val}
			val = nv
		}
		f.assignTo(b, l, val)
	}
}

// assignTo routes a value into an lvalue: local variables update the SSA
// definition; everything else (fields, globals, indexes, derefs, captured
// variables) becomes an explicit store.
func (f *Func) assignTo(b *IRBlock, l ast.Expr, val *Value) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj, ok := f.info.ObjectOf(id).(*types.Var); ok {
			switch {
			case isPackageLevel(obj):
				g := f.newValue(VGlobal, obj.Type(), id.Pos())
				g.Obj = obj
				f.emit(b, &Instr{Kind: IStore, Addr: g, Val: val, Pos: id.Pos()})
			case f.isLocal(obj):
				f.writeVar(obj, b, val)
			default:
				fv := f.newValue(VFree, obj.Type(), id.Pos())
				fv.Obj = obj
				f.emit(b, &Instr{Kind: IStore, Addr: fv, Val: val, Pos: id.Pos()})
			}
			return
		}
	}
	addr := f.evalExpr(b, l)
	f.emit(b, &Instr{Kind: IStore, Addr: addr, Val: val, Pos: l.Pos()})
}

// isLocal reports whether obj is declared inside this unit's body (or is
// one of its parameters), as opposed to captured from an enclosing scope.
func (f *Func) isLocal(obj *types.Var) bool {
	if _, ok := f.params[obj]; ok {
		return true
	}
	body := ast.Node(f.Decl.Decl)
	if f.Lit != nil {
		body = f.Lit
	}
	return obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

func (f *Func) extract(call *Value, i int) *Value {
	if call == nil {
		return nil
	}
	if call.Kind != VCall || i == 0 && singleResult(call) {
		return call
	}
	e := f.newValue(VExtract, resultType(call, i), call.Pos)
	e.Base, e.ResIdx = call, i
	return e
}

func singleResult(call *Value) bool {
	if t, ok := call.Type.(*types.Tuple); ok {
		return t.Len() <= 1
	}
	return true
}

func resultType(call *Value, i int) types.Type {
	if t, ok := call.Type.(*types.Tuple); ok && i < t.Len() {
		return t.At(i).Type()
	}
	return call.Type
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// structOf returns the struct type t stands for, or *t does for an
// elided &T in a []*T literal; nil for any other type.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if t == nil {
		return nil
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// exprValue makes the value e defines, with e's type and, when type info
// folds e to a constant, its constant.
func (f *Func) exprValue(k ValueKind, e ast.Expr) *Value {
	tv := f.info.Types[e]
	v := f.newValue(k, tv.Type, e.Pos())
	v.Expr, v.Const = e, tv.Value
	return v
}

// evalExpr lowers an expression to its Value at the current point of b.
func (f *Func) evalExpr(b *IRBlock, e ast.Expr) *Value {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return f.evalExpr(b, v.X)
	case *ast.Ident:
		return f.evalIdent(b, v)
	case *ast.BasicLit:
		return f.exprValue(VConst, v)
	case *ast.CallExpr:
		return f.evalCall(b, v)
	case *ast.SelectorExpr:
		return f.evalSelector(b, v)
	case *ast.IndexExpr:
		base := f.evalExpr(b, v.X)
		idx := f.evalExpr(b, v.Index)
		r := f.exprValue(VIndexRead, v)
		r.Base, r.Args = base, []*Value{idx}
		return r
	case *ast.StarExpr:
		base := f.evalExpr(b, v.X)
		r := f.exprValue(VDeref, v)
		r.Base = base
		return r
	case *ast.UnaryExpr:
		base := f.evalExpr(b, v.X)
		if v.Op == token.AND {
			r := f.exprValue(VAddr, v)
			r.Base = base
			return r
		}
		r := f.exprValue(VOp, v)
		r.Op, r.Args = v.Op, []*Value{base}
		if v.Op == token.ARROW && b.SelectComm {
			// Receives chosen by a select arm are order-dependent.
			r.Block = b
		}
		return r
	case *ast.BinaryExpr:
		x := f.evalExpr(b, v.X)
		y := f.evalExpr(b, v.Y)
		r := f.exprValue(VOp, v)
		r.Op, r.Args = v.Op, []*Value{x, y}
		return r
	case *ast.CompositeLit:
		r := f.exprValue(VComposite, v)
		st := structOf(r.Type)
		for i, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if st != nil {
					fld, _ := f.info.ObjectOf(kv.Key.(*ast.Ident)).(*types.Var)
					r.Fields = append(r.Fields, fld)
				}
				el = kv.Value
			} else if st != nil {
				r.Fields = append(r.Fields, st.Field(i))
			}
			r.Args = append(r.Args, f.evalExpr(b, el))
		}
		return r
	case *ast.TypeAssertExpr:
		base := f.evalExpr(b, v.X)
		r := f.exprValue(VOp, v)
		r.Args = []*Value{base}
		return r
	case *ast.SliceExpr:
		base := f.evalExpr(b, v.X)
		r := f.exprValue(VOp, v)
		r.Args = []*Value{base}
		for _, bound := range []ast.Expr{v.Low, v.High, v.Max} {
			if bound != nil {
				r.Args = append(r.Args, f.evalExpr(b, bound))
			}
		}
		return r
	case *ast.FuncLit:
		r := f.exprValue(VClosure, v)
		sig, _ := r.Type.(*types.Signature)
		unit := lowerBody(f.Decl, v, sig, v.Body, b.MapRange)
		r.Unit = unit
		f.Lits = append(f.Lits, unit)
		return r
	default:
		return f.exprValue(VUnknown, e)
	}
}

func (f *Func) evalIdent(b *IRBlock, id *ast.Ident) *Value {
	obj := f.info.ObjectOf(id)
	switch o := obj.(type) {
	case *types.Var:
		if isPackageLevel(o) {
			g := f.newValue(VGlobal, o.Type(), id.Pos())
			g.Obj, g.Expr = o, id
			return g
		}
		if f.isLocal(o) {
			return f.readVar(o, b)
		}
		fv := f.newValue(VFree, o.Type(), id.Pos())
		fv.Obj, fv.Expr = o, id
		return fv
	case *types.Const:
		c := f.exprValue(VConst, id)
		c.Type = o.Type()
		return c
	case *types.Nil:
		return f.exprValue(VConst, id)
	default:
		r := f.exprValue(VUnknown, id)
		r.Func, _ = o.(*types.Func)
		return r
	}
}

func (f *Func) evalSelector(b *IRBlock, sel *ast.SelectorExpr) *Value {
	// Qualified identifier: pkg.Var / pkg.Const / pkg.Func.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := f.info.ObjectOf(id).(*types.PkgName); isPkg {
			switch o := f.info.ObjectOf(sel.Sel).(type) {
			case *types.Var:
				g := f.newValue(VGlobal, o.Type(), sel.Pos())
				g.Obj, g.Expr = o, sel
				return g
			case *types.Const:
				c := f.exprValue(VConst, sel)
				c.Type = o.Type()
				return c
			default:
				r := f.exprValue(VUnknown, sel)
				r.Func, _ = o.(*types.Func)
				return r
			}
		}
	}
	base := f.evalExpr(b, sel.X)
	if fieldVar, ok := f.info.ObjectOf(sel.Sel).(*types.Var); ok {
		r := f.exprValue(VFieldRead, sel)
		r.Base, r.Obj = base, fieldVar
		return r
	}
	// Method value or embedded method selection.
	r := f.exprValue(VOp, sel)
	r.Base = base
	r.Func, _ = f.info.ObjectOf(sel.Sel).(*types.Func)
	return r
}

func (f *Func) evalCall(b *IRBlock, call *ast.CallExpr) *Value {
	// A conversion parses as a call whose Fun is a type: passthrough.
	if len(call.Args) == 1 && f.info.Types[call.Fun].IsType() {
		return f.evalExpr(b, call.Args[0])
	}
	r := f.exprValue(VCall, call)
	r.Call = call
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := f.info.ObjectOf(id).(*types.Builtin); ok {
			r.Builtin = bi.Name()
		}
	}
	r.Callee = calleeFunc(f.info, call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && r.Callee != nil {
		if s, ok := f.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			r.Base = f.evalExpr(b, sel.X)
		}
	}
	if r.Callee == nil && r.Builtin == "" {
		// Calling a func-typed value: evaluate it so taint flows.
		r.Base = f.evalExpr(b, call.Fun)
	}
	for _, a := range call.Args {
		r.Args = append(r.Args, f.evalExpr(b, a))
	}
	b.Calls = append(b.Calls, r)
	return r
}

// atomKey returns a stable storage key for v: a chain of field selections
// rooted at the receiver ("r"), a parameter ("p:<i>"), a global
// ("g:<pkg>.<name>") or, failing those, the root value's own identity
// ("v<id>" — reads of one local resolve to one SSA value, so this is
// stable). ok is false only for nil values.
func atomKey(v *Value) (string, bool) {
	if v == nil {
		return "", false
	}
	switch v.Kind {
	case VRecv:
		return "r", true
	case VParam:
		return "p:" + itoa(v.ResIdx), true
	case VGlobal:
		if v.Obj != nil && v.Obj.Pkg() != nil {
			return "g:" + v.Obj.Pkg().Path() + "." + v.Obj.Name(), true
		}
		return "v" + itoa(v.ID), true
	case VFieldRead:
		base, ok := atomKey(v.Base)
		if !ok || v.Obj == nil {
			return "", false
		}
		return base + "." + v.Obj.Name(), true
	case VAddr, VDeref:
		return atomKey(v.Base)
	default:
		return "v" + itoa(v.ID), true
	}
}

// AliasClass is atomKey's rooted form: the key of a place rooted at the
// receiver, a parameter or a global, which names the same storage in
// every call, or "" for a place rooted at a local value.
func AliasClass(v *Value) string {
	if k, _ := atomKey(v); !strings.HasPrefix(k, "v") {
		return k
	}
	return ""
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}
