package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// obsPkg declares Hook, whose Add is the one hook installation site.
const obsPkg = modPath + "/internal/obs"

// observerpurity: hooks must be purely observational. A hook that mutates
// the state handed to it or package-level state silently changes protocol
// behaviour only when a checker is attached, which is exactly the class of
// bug the race detector's cycle-identical guarantee (internal/race) exists
// to exclude. Hooks are recognized at their one installation shape: a
// function literal or a method value passed to (*obs.Hook).Add, the
// subscription every observation point shares, or to SetBootHook. A
// method value's receiver is the observer's own state; its other
// parameters are the observed state, like a literal's. Inside a hook
// body the analyzer flags
//
//   - writes (assignment, ++/--) through a hook parameter or to a
//     package-level variable. A write goes through the parameter when the
//     way from it to the written place passes a pointer, slice or map: a
//     by-value parameter's own fields are the hook's copy. Writes to
//     captured function-locals stay legal, since accumulating results in
//     the installing function is the sanctioned pattern (see
//     sanitizer.Attach and experiments.RunChecked);
//   - mutation through method calls: a call on observed state is flagged
//     when module-wide summaries prove the method (transitively) writes
//     through its receiver — e.g. sem.NoteContention() bumps the
//     semaphore's contention counter though no assignment appears at the
//     hook site;
//   - aliasing: in `s := e.Sem; s.NoteContention()` the SSA value of s is
//     e.Sem itself, rooted at the hook parameter, so laundering the state
//     through a local (or a phi of locals) does not escape the rule; and
//   - recording into the race model: a call that reaches, through the
//     call graph, a race.Detector method writing the detector's state —
//     whatever state the call starts from. An instrumented accessor such
//     as cpu.Lazy() records an atomic load as the calling CPU's, so an
//     observer calling it adds happens-before edges only checked runs
//     have.
//
// Two carve-outs keep the rules aligned with the simulator's contract:
//
//   - Methods declared in the instrumentation packages (obs, race, trace,
//     stats, sanitizer) are pure by convention for the mutation rule —
//     recording into the observer's own ledger is what observers are
//     for, and subscribing to a new object's hooks (the sanitizer does so
//     for every address space it is told about) only grows a subscriber
//     list. The race-model rule walks through them.
//   - workload.SetBootHook bodies are exempt from the method-call and
//     race-model rules: the boot hook runs before the world starts, and
//     attaching instrumentation there (k.EnableRace(d), f.EnableRace())
//     is its designed purpose. Direct writes are still flagged.
var pureDeclPkgs = []string{
	obsPkg,
	modPath + "/internal/race",
	modPath + "/internal/trace",
	modPath + "/internal/stats",
	modPath + "/internal/sanitizer",
}

func inPurePkg(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return true // stdlib and friends: out of scope
	}
	p := fn.Pkg().Path()
	for _, pure := range pureDeclPkgs {
		if p == pure || strings.HasPrefix(p, pure+"/") {
			return true
		}
	}
	return false
}

func checkObserverPurity(ctx *modCtx) []Finding {
	prog := ctx.program()
	mut := buildMutatingSummaries(prog)
	rec := buildRaceRecorders(prog, mut)
	checked := make(map[*Func]bool)
	var out []Finding
	prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			ctx.visited["observerpurity"]++
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if hook, boot := hookUnit(prog, call); hook != nil && !checked[hook] {
					checked[hook] = true
					out = append(out, checkHook(ctx, prog, hook, boot, mut, rec)...)
				}
			}
		}
	})
	return out
}

// hookUnit returns the unit call installs as a hook — call is
// (*obs.Hook).Add, recognized by its receiver type rather than by what the
// file happens to call the hook, or SetBootHook — and whether it is a boot
// hook. The hook is a func literal or a method value's method.
func hookUnit(prog *Program, call *Value) (hook *Func, boot bool) {
	fn := call.Callee
	if fn == nil || len(call.Args) != 1 {
		return nil, false
	}
	boot = fn.Name() == "SetBootHook"
	recv := fn.Type().(*types.Signature).Recv()
	if !boot && (fn.Name() != "Add" || recv == nil || !isNamed(recv.Type(), obsPkg, "Hook")) {
		return nil, false
	}
	switch arg := chase(call.Args[0]); {
	case arg == nil:
		return nil, false
	case arg.Kind == VClosure:
		return arg.Unit, boot
	case arg.Kind == VOp && arg.Func != nil:
		return prog.ByObj[arg.Func.Origin()], boot
	}
	return nil, false
}

// checkHook flags impure effects inside one hook body and the literals
// nested in it. Observed state is whatever a place is rooted at a hook
// parameter (a method hook's receiver excluded): read directly, through a
// local derived from it (SSA folds the copy away), or captured by a
// nested literal.
func checkHook(ctx *modCtx, prog *Program, hook *Func, boot bool, mut map[*types.Func]bool, rec map[*types.Func]*types.Func) []Finding {
	params := make(map[*types.Var]bool)
	for i := 0; i < hook.Sig.Params().Len(); i++ {
		params[hook.Sig.Params().At(i)] = true
	}
	observed := func(root *Value) bool {
		return (root.Kind == VParam || root.Kind == VFree) && params[root.Obj]
	}

	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			File: hook.Decl.File, Line: ctx.m.Fset.Position(pos).Line,
			Analyzer: "observerpurity",
			Msg:      "hook mutates " + what + "; observers must be purely observational",
		})
	}
	isMutating := func(call *Value) bool {
		return !inPurePkg(call.Callee) && callsMutator(prog, call, mut)
	}

	for _, u := range append([]*Func{hook}, collectLits(hook)...) {
		for _, b := range u.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore {
					continue
				}
				switch root := storeRoot(in.Addr); {
				case writesThrough(in.Addr, observed):
					report(in.Pos, fmt.Sprintf("observed state %q (write through hook parameter)", placeName(in.Addr)))
				case root.Kind == VGlobal:
					report(in.Pos, fmt.Sprintf("package-level variable %q", root.Obj.Name()))
				}
			}
			if boot {
				continue // boot hooks attach instrumentation by design
			}
			for _, call := range b.Calls {
				if call.Callee != nil && call.Base != nil && isMutating(call) && callWritesThrough(call, observed) {
					sel := ast.Unparen(call.Call.Fun).(*ast.SelectorExpr)
					report(call.Pos, fmt.Sprintf("observed state %q via call to mutating method %s", exprHead(sel.X), call.Callee.Name()))
				}
				if r := recordsRace(prog, call, mut, rec); r != nil {
					report(call.Pos, fmt.Sprintf("race-model state via call to %s, which reaches Detector.%s", call.Callee.Name(), r.Name()))
				}
			}
		}
	}
	return out
}

// collectLits lists f's function literals, nested ones included.
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

// buildRaceRecorders maps every module function that records into the
// race model to the race.Detector method it reaches: it calls one
// directly, from a literal in its body, or through another such
// function. The detector's own package is the base, not a walk target.
func buildRaceRecorders(prog *Program, mut map[*types.Func]bool) map[*types.Func]*types.Func {
	rec := make(map[*types.Func]*types.Func)
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			if rec[f.Decl.Obj] != nil || f.Decl.Pkg.Path == racePkg {
				continue
			}
		scan:
			for _, u := range append([]*Func{f}, collectLits(f)...) {
				for _, b := range u.Blocks {
					for _, call := range b.Calls {
						if r := recordsRace(prog, call, mut, rec); r != nil {
							rec[f.Decl.Obj] = r
							changed = true
							break scan
						}
					}
				}
			}
		}
	}
	return rec
}

// recordsRace returns the race.Detector method call reaches: the callee
// itself when it is a Detector method that writes the detector (a
// recording hook such as AtomicLoad or Acquire), or the one a callee
// reaches.
func recordsRace(prog *Program, call *Value, mut map[*types.Func]bool, rec map[*types.Func]*types.Func) *types.Func {
	for _, t := range prog.calleesOf(call) {
		t = t.Origin()
		if r := rec[t]; r != nil {
			return r
		}
		if sig := t.Type().(*types.Signature); mut[t] && sig.Recv() != nil && isNamed(sig.Recv().Type(), racePkg, "Detector") {
			return t
		}
	}
	return nil
}

// buildMutatingSummaries computes, by fixpoint over the module, which
// methods write through their receiver — directly (field assignment or
// ++/--), from a literal in their body, or by calling another mutating
// method on receiver-rooted state.
func buildMutatingSummaries(prog *Program) map[*types.Func]bool {
	mut := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			if !mut[f.Decl.Obj] && f.Sig.Recv() != nil && methodMutates(prog, f, mut) {
				mut[f.Decl.Obj] = true
				changed = true
			}
		}
	}
	return mut
}

// methodMutates reports whether method f writes through its receiver under
// the current fixpoint state, by the rules a hook's writes are judged by: a
// value receiver is the method's own copy, so only a write or a mutating
// call through a pointer, slice or map it holds counts. Rebinding the bare
// receiver, in f or in a literal, changes only a local variable.
func methodMutates(prog *Program, f *Func, mut map[*types.Func]bool) bool {
	recv := f.Sig.Recv()
	isRecv := func(root *Value) bool {
		return root.Kind == VRecv || (root.Kind == VFree && root.Obj == recv)
	}
	for _, u := range append([]*Func{f}, collectLits(f)...) {
		for _, b := range u.Blocks {
			for _, in := range b.Instrs {
				if in.Kind == IStore && writesThrough(in.Addr, isRecv) {
					return true
				}
			}
			for _, call := range b.Calls {
				if call.Callee != nil && call.Base != nil && callsMutator(prog, call, mut) && callWritesThrough(call, isRecv) {
					return true
				}
			}
		}
	}
	return false
}

// callsMutator reports whether call may run a mutating method: its callee,
// or for an interface method any module implementation.
func callsMutator(prog *Program, call *Value, mut map[*types.Func]bool) bool {
	for _, t := range prog.calleesOf(call) {
		if mut[t.Origin()] { // a generic method's summary is its origin's
			return true
		}
	}
	return false
}

// callWritesThrough reports whether a call of a mutating method writes
// state that a root satisfying pred shares. A pointer method called on an
// addressable place writes that place, shared only when the way to it
// passes a reference (writesThrough); any other base hands the callee the
// references it holds, so any such root counts.
func callWritesThrough(call *Value, pred func(*Value) bool) bool {
	_, ptrRecv := call.Callee.Type().(*types.Signature).Recv().Type().(*types.Pointer)
	if ptrRecv && !isReference(call.Base.Type) {
		return writesThrough(call.Base, pred)
	}
	return anyRoot(call.Base, pred)
}

// anyRoot reports whether some value the place v may start from — through
// its chain and every operand of the phis on the way — satisfies pred.
func anyRoot(v *Value, pred func(*Value) bool) bool {
	seen := make(map[*Value]bool)
	var walk func(v *Value) bool
	walk = func(v *Value) bool {
		if v == nil || seen[v] {
			return false
		}
		seen[v] = true
		root := storeRoot(v)
		if root.Kind != VPhi {
			return pred(root)
		}
		for _, arg := range root.Args {
			if walk(arg) {
				return true
			}
		}
		return false
	}
	return walk(v)
}

// writesThrough reports whether a store to place v writes state that a root
// satisfying pred shares with others: the way from such a root to v (through
// the operands of the phis on it) passes a pointer, slice or map — a
// dereference, or a field or index read on a base of such a type.
func writesThrough(v *Value, pred func(*Value) bool) bool {
	seen := make(map[*Value]bool)
	var walk func(v *Value) bool
	walk = func(v *Value) bool {
		for ; v != nil; v = v.Base {
			switch v.Kind {
			case VDeref:
				return anyRoot(v.Base, pred)
			case VFieldRead, VIndexRead:
				if isReference(v.Base.Type) {
					return anyRoot(v.Base, pred)
				}
			case VAddr:
			case VPhi:
				if seen[v] {
					return false
				}
				seen[v] = true
				for _, arg := range v.Args {
					if walk(arg) {
						return true
					}
				}
				return false
			default:
				return false // a root reached without passing a reference
			}
		}
		return false
	}
	return walk(v)
}

// isReference reports whether values of type t share what they refer to.
func isReference(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// placeName is the variable a written place starts from in the source
// ("alias" in alias.n[i] = 0). SSA folds copies together, so a message
// names the variable the source wrote, not the parameter it aliases.
func placeName(addr *Value) string {
	if addr.Expr == nil {
		return addr.Obj.Name() // a store to a captured variable itself
	}
	return exprHead(addr.Expr)
}

// exprHead returns the identifier a selector, index or dereference chain
// starts from.
func exprHead(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
