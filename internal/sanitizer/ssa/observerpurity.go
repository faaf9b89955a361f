package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// observerpurity: hooks must be purely observational. A hook that mutates
// the state handed to it or package-level state silently changes protocol
// behaviour only when a checker is attached, which is exactly the class of
// bug the race detector's cycle-identical guarantee (internal/race) exists
// to exclude. Hook literals are recognized at three kinds of installation
// site: assignment to a field whose name ends in "Hook", a field value in
// a composite literal of a type named *Observer or *Probe, and an argument
// to SetObserver, SetProbe or SetBootHook. Inside a hook body the analyzer
// flags
//
//   - writes (assignment, ++/--) through a hook parameter or a package-level
//     variable; writes to captured function-locals stay legal, since
//     accumulating results in the installing function is the sanctioned
//     pattern (see sanitizer.Attach and experiments.RunRace);
//   - mutation through method calls: a call on observed state is flagged
//     when module-wide summaries prove the method (transitively) writes
//     through its receiver — e.g. sem.NoteContention() bumps the
//     semaphore's contention counter though no assignment appears at the
//     hook site; and
//   - aliasing: `s := e.Sem; s.NoteContention()` taints s because it was
//     derived from a hook parameter, so laundering the state through a
//     local does not escape the rule.
//
// Two carve-outs keep the rule aligned with the simulator's contract:
//
//   - Methods declared in the instrumentation packages (race, trace,
//     stats, sanitizer) are pure by convention — recording into the
//     observer's own ledger is what observers are for.
//   - workload.SetBootHook bodies are exempt from the method-call rule:
//     the boot hook runs before the world starts, and attaching
//     instrumentation there (k.EnableRace(d), f.EnableRace()) is its
//     designed purpose. Direct writes are still flagged.
var pureDeclPkgs = []string{
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

func checkObserverPurity(ctx *modCtx) ([]Finding, []Suppression) {
	mut := buildMutatingSummaries(ctx)
	impls := buildImplMap(ctx.pkgs)
	var out []Finding
	for _, fd := range allFuncs(ctx.pkgs) {
		info := fd.Pkg.Info
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			for _, h := range hookLits(info, n) {
				out = append(out, checkHookLit(ctx, fd, h, mut, impls)...)
			}
			return true
		})
	}
	return out, nil
}

// hookInstall is one recognized hook literal plus its installation kind.
type hookInstall struct {
	lit  *ast.FuncLit
	boot bool // installed via SetBootHook
}

// hookLits returns the hook function literals n installs, resolved with
// type information (so an Observer composite literal is recognized by its
// named type, not by what the file happens to call it).
func hookLits(info *types.Info, n ast.Node) []hookInstall {
	var out []hookInstall
	switch v := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range v.Lhs {
			if i >= len(v.Rhs) {
				break
			}
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Hook") {
				continue
			}
			if lit, ok := v.Rhs[i].(*ast.FuncLit); ok {
				out = append(out, hookInstall{lit: lit})
			}
		}
	case *ast.CompositeLit:
		named := namedType(info.TypeOf(v))
		if named == nil {
			return nil
		}
		name := named.Obj().Name()
		if !strings.HasSuffix(name, "Observer") && !strings.HasSuffix(name, "Probe") {
			return nil
		}
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if lit, ok := kv.Value.(*ast.FuncLit); ok {
					out = append(out, hookInstall{lit: lit})
				}
			}
		}
	case *ast.CallExpr:
		fn := calleeFunc(info, v)
		if fn == nil {
			return nil
		}
		switch fn.Name() {
		case "SetObserver", "SetProbe", "SetBootHook":
		default:
			return nil
		}
		for _, arg := range v.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, hookInstall{lit: lit, boot: fn.Name() == "SetBootHook"})
			}
		}
	}
	return out
}

// checkHookLit flags impure statements inside one hook literal.
func checkHookLit(ctx *modCtx, fd FuncDecl, h hookInstall, mut map[*types.Func]bool, impls map[*types.Func][]*types.Func) []Finding {
	info := fd.Pkg.Info

	// Taint: the hook's parameters, plus locals derived from them.
	taint := make(map[*types.Var]bool)
	for _, field := range h.lit.Type.Params.List {
		for _, id := range field.Names {
			if v, ok := info.Defs[id].(*types.Var); ok {
				taint[v] = true
			}
		}
	}
	// Alias closure (flow-insensitive; alias-of-alias converges).
	for changed := true; changed; {
		changed = false
		ast.Inspect(h.lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, r := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				src := rootVar(info, r)
				if src == nil || !taint[src] {
					continue
				}
				if dst := identObj(info, as.Lhs[i]); dst != nil && !taint[dst] {
					taint[dst] = true
					changed = true
				}
			}
			return true
		})
	}

	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			File: fd.File, Line: ctx.m.Fset.Position(pos).Line,
			Analyzer: "observerpurity",
			Msg:      "hook mutates " + what + "; observers must be purely observational",
		})
	}
	write := func(lhs ast.Expr) {
		root := rootVar(info, lhs)
		switch {
		case root == nil:
		case taint[root]:
			report(lhs.Pos(), fmt.Sprintf("observed state %q (write through hook parameter)", root.Name()))
		case root.Pkg() != nil && root.Parent() == root.Pkg().Scope():
			report(lhs.Pos(), fmt.Sprintf("package-level variable %q", root.Name()))
		}
	}
	isMutating := func(fn *types.Func) bool {
		if inPurePkg(fn) {
			return false
		}
		if mut[fn] {
			return true
		}
		for _, impl := range impls[fn] { // interface method: any impl
			if mut[impl] {
				return true
			}
		}
		return false
	}

	ast.Inspect(h.lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE {
				for _, lhs := range v.Lhs {
					write(lhs)
				}
			}
		case *ast.IncDecStmt:
			write(v.X)
		case *ast.CallExpr:
			if h.boot {
				return true // boot hooks attach instrumentation by design
			}
			fn := calleeFunc(info, v)
			if fn == nil || !isMutating(fn) {
				return true
			}
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if root := rootVar(info, sel.X); root != nil && taint[root] {
				report(v.Pos(), fmt.Sprintf("observed state %q via call to mutating method %s", root.Name(), fn.Name()))
			}
		}
		return true
	})
	return out
}

// buildMutatingSummaries computes, by fixpoint over the module, which
// methods write through their receiver — directly (field assignment or
// ++/--) or by calling another mutating method on receiver-rooted state.
func buildMutatingSummaries(ctx *modCtx) map[*types.Func]bool {
	funcs := allFuncs(ctx.pkgs)
	mut := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			if mut[fd.Obj] {
				continue
			}
			if recv := receiverVar(fd); recv != nil && methodMutates(fd, recv, mut) {
				mut[fd.Obj] = true
				changed = true
			}
		}
	}
	return mut
}

// receiverVar returns the *types.Var bound to fd's receiver name (nil for
// plain functions and anonymous receivers, which cannot be written
// through).
func receiverVar(fd FuncDecl) *types.Var {
	if fd.Decl.Recv == nil || len(fd.Decl.Recv.List) == 0 || len(fd.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := fd.Pkg.Info.Defs[fd.Decl.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// methodMutates reports whether fd writes through recvVar under the
// current fixpoint state.
func methodMutates(fd FuncDecl, recvVar *types.Var, mut map[*types.Func]bool) bool {
	info := fd.Pkg.Info
	// writesThrough: a write to the bare receiver variable itself rebinds a
	// local copy; only writes through it (selector/index/deref) mutate the
	// object.
	writesThrough := func(e ast.Expr) bool {
		if _, bare := ast.Unparen(e).(*ast.Ident); bare {
			return false
		}
		return rootVar(info, e) == recvVar
	}
	found := false
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				found = found || writesThrough(lhs)
			}
		case *ast.IncDecStmt:
			found = writesThrough(v.X)
		case *ast.CallExpr:
			if fn := calleeFunc(info, v); fn != nil && mut[fn] {
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					found = rootVar(info, sel.X) == recvVar
				}
			}
		}
		return !found
	})
	return found
}

// rootVar walks selector/index/star/paren chains to the base variable: a
// local, a parameter, or a package-level variable (including one named
// through its package, pkg.V). It returns nil when the chain bottoms out
// in a call result or anything else that is not a variable.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj, _ := info.ObjectOf(v).(*types.Var)
			return obj
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					obj, _ := info.ObjectOf(v.Sel).(*types.Var)
					return obj
				}
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
