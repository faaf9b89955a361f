package ssa

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// parallelsafe guards the scheduler's core assumption (internal/sched):
// every simulated world is self-contained, so experiment cells may run
// concurrently and still produce byte-identical results. A mutable
// package-level variable in a simulated package is cross-world shared
// state — two concurrently booted machines would observe each other,
// which is both a data race under `go test -race` and a determinism leak.
// Immutable error sentinels (every initializer is errors.New or
// fmt.Errorf) are exempt; for every other var the analyzer proves a
// save/restore setter discipline over the SSA form of the entire module:
//
//   - every store to the var must happen inside a restore-disciplined
//     setter — a function that saves the old value into a local, writes
//     the var, and returns a closure restoring the saved value — or
//     inside that returned restore closure itself;
//   - stores through aliases (field chains, index expressions, pointers
//     rooted at the var) count as stores.
//
// A var that fails the proof is reported at every undisciplined store
// site.

// parallelScope lists the module-relative directory prefixes that make up
// the simulated world — the packages whose state must be self-contained
// for experiment cells to run concurrently. detflow shares this
// definition of "simulated state".
var parallelScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/",
	"internal/daemons/", "internal/fault/", "internal/kernel/",
	"internal/mach/", "internal/mm/", "internal/pagetable/",
	"internal/sim/", "internal/smp/", "internal/stats/",
	"internal/syscalls/", "internal/tlb/", "internal/virt/",
	"internal/workload/",
}

// inParallelScope reports whether the module-relative path rel lies
// inside a simulated package.
func inParallelScope(rel string) bool {
	for _, p := range parallelScope {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// isErrorSentinel reports whether every initializer of the spec is an
// errors.New or fmt.Errorf call — the immutable error-identity pattern.
func isErrorSentinel(vs *ast.ValueSpec) bool {
	if len(vs.Values) == 0 || len(vs.Values) != len(vs.Names) {
		return false
	}
	for _, v := range vs.Values {
		call, ok := v.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		if !(pkg.Name == "errors" && sel.Sel.Name == "New") &&
			!(pkg.Name == "fmt" && sel.Sel.Name == "Errorf") {
			return false
		}
	}
	return true
}

// psStore is one store to a tracked var.
type psStore struct {
	unit  *Func
	instr *Instr
}

// checkParallelSafe proves restore discipline for package-level vars in
// simulated packages.
func checkParallelSafe(ctx *modCtx) []Finding {
	prog := ctx.program()
	vars := collectSimGlobals(ctx)
	if len(vars) == 0 {
		return nil
	}
	tracked := make(map[*types.Var]bool, len(vars))
	for _, v := range vars {
		tracked[v] = true
	}

	// Gather every store to a tracked var, and the unit parentage needed
	// to recognise restore closures.
	parent := make(map[*Func]*Func)
	stores := make(map[*types.Var][]psStore)
	prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			ctx.visited["parallelsafe"]++
		}
		for _, lit := range f.Lits {
			parent[lit] = f
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore {
					continue
				}
				root := storeRoot(in.Addr)
				if root == nil || root.Kind != VGlobal || root.Obj == nil {
					continue
				}
				if tracked[root.Obj] {
					stores[root.Obj] = append(stores[root.Obj], psStore{unit: f, instr: in})
				}
			}
		}
	})

	var findings []Finding
	for _, v := range vars {
		for _, st := range stores[v] {
			if storeDisciplined(st, v, parent) {
				continue
			}
			file, line := ctx.posLine(st.unit.Decl, st.instr.Pos)
			findings = append(findings, Finding{
				File: file, Line: line, Analyzer: "parallelsafe",
				Msg: fmt.Sprintf("package-level var %q written outside a restore-disciplined setter: worlds run concurrently under internal/sched, so this store races across experiment cells", v.Name()),
			})
		}
	}
	return findings
}

// collectSimGlobals lists the mutable package-level vars declared in
// simulated packages (and fixtures), skipping error sentinels.
func collectSimGlobals(ctx *modCtx) []*types.Var {
	var out []*types.Var
	for _, p := range ctx.pkgs {
		if dir := p.Dir + "/"; !inParallelScope(dir) && !inFixture(dir) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || isErrorSentinel(vs) {
						continue
					}
					for _, id := range vs.Names {
						if obj, _ := p.Info.Defs[id].(*types.Var); obj != nil && id.Name != "_" {
							out = append(out, obj)
						}
					}
				}
			}
		}
	}
	return out
}

// storeRoot chases a store address through field/index/pointer chains to
// the value that names the stored-into location.
func storeRoot(v *Value) *Value {
	for v != nil {
		switch v.Kind {
		case VFieldRead, VIndexRead, VAddr, VDeref:
			v = v.Base
		default:
			return v
		}
	}
	return nil
}

// chase looks through passthrough value kinds.
func chase(v *Value) *Value {
	for v != nil {
		switch v.Kind {
		case VAddr, VDeref:
			v = v.Base
		default:
			return v
		}
	}
	return nil
}

// storeDisciplined reports whether st is a sanctioned write to g: either
// the unit is a restore-disciplined setter for g, or the unit is the
// restore closure such a setter returned.
func storeDisciplined(st psStore, g *types.Var, parent map[*Func]*Func) bool {
	if isRestoreSetter(st.unit, g) {
		return true
	}
	if p := parent[st.unit]; p != nil && closureRestores(st.unit, p, g) {
		return true
	}
	return false
}

// isRestoreSetter reports whether f returns a closure restoring g from a
// local that saved g's previous value.
func isRestoreSetter(f *Func, g *types.Var) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IReturn {
				continue
			}
			for _, res := range in.Results {
				c := chase(res)
				if c == nil || c.Kind != VClosure || c.Unit == nil {
					continue
				}
				if closureRestores(c.Unit, f, g) {
					return true
				}
			}
		}
	}
	return false
}

// closureRestores reports whether literal unit cl stores into g a value it
// captured from parent, where that captured local was defined by reading g
// — i.e. cl is the `func() { g = prev }` half of the discipline.
func closureRestores(cl *Func, parent *Func, g *types.Var) bool {
	for _, b := range cl.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IStore {
				continue
			}
			root := storeRoot(in.Addr)
			if root == nil || root.Kind != VGlobal || root.Obj != g {
				continue
			}
			val := chase(in.Val)
			if val == nil || val.Kind != VFree || val.Obj == nil {
				continue
			}
			for _, def := range parent.defs[val.Obj] {
				if d := chase(def); d != nil && d.Kind == VGlobal && d.Obj == g {
					return true
				}
			}
		}
	}
	return false
}
