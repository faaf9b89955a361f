package ssa

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// costliteral: every cycle cost charged in the machine-model packages must
// come from the cost model (internal/mach/costs.go), so experiments stay
// calibratable. The analyzer flags
//
//   - integer literals, named constants and constant expressions at a
//     Delay call (go/types constant folding evaluates them, so
//     `p.Delay(fixedCost)` is as visible as `p.Delay(123)`), and
//   - constants passed to thin wrappers: a parameter that a function
//     forwards whole to Delay (or to another cost-like parameter) is
//     itself cost-like, so a constant passed to the wrapper is flagged at
//     the wrapper's call site.
//
// The sink is (*sim.Proc).Delay resolved by callee identity, not method
// name, so an unrelated Delay method elsewhere cannot confuse the pass.

// costScope lists the machine-model directories where every cycle cost
// must come from the cost model, never a constant. Workload scripts and
// cmd tools may use scenario-level literals.
var costScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/", "internal/daemons/",
	"internal/kernel/", "internal/mm/", "internal/smp/", "internal/syscalls/",
	"internal/tlb/",
}

func inCostScope(rel string) bool {
	if inFixture(rel) {
		return true
	}
	for _, p := range costScope {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// isDelaySink reports whether fn is (*sim.Proc).Delay.
func isDelaySink(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Delay" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), modPath+"/internal/sim", "Proc")
}

// costParam identifies one cost-like parameter of a module function.
type costParam struct {
	fn  *types.Func
	idx int // index into the signature's params
}

func checkCostLiteral(ctx *modCtx) []Finding {
	funcs := allFuncs(ctx.pkgs)

	// Fixpoint: a parameter is cost-like when its function passes it whole
	// (modulo parens and conversions) to Delay or to an already cost-like
	// parameter. Thin wrappers of wrappers converge in a few rounds.
	costLike := make(map[costParam]bool)
	isSink := func(callee *types.Func, i int) bool {
		return (isDelaySink(callee) && i == 0) || costLike[costParam{fn: callee, idx: i}]
	}
	paramIndex := func(fn FuncDecl, v *types.Var) int {
		sig := fn.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return i
			}
		}
		return -1
	}
	// eachCall visits every resolved call in fd's body.
	eachCall := func(fd FuncDecl, visit func(call *ast.CallExpr, callee *types.Func)) {
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeFunc(fd.Pkg.Info, call); callee != nil {
					visit(call, callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			info := fd.Pkg.Info
			eachCall(fd, func(call *ast.CallExpr, callee *types.Func) {
				for i, arg := range call.Args {
					v := identObj(info, unwrap(info, arg))
					if v == nil || !isSink(callee, i) {
						continue
					}
					key := costParam{fn: fd.Obj, idx: paramIndex(fd, v)}
					if key.idx >= 0 && !costLike[key] {
						costLike[key] = true
						changed = true
					}
				}
			})
		}
	}

	// Flag compile-time-constant arguments reaching a sink from cost-scope
	// code. Zero is exempt: `Delay(0)` is an explicit no-op, not a cost.
	var out []Finding
	for _, fd := range funcs {
		if !inCostScope(fd.File) {
			continue
		}
		info := fd.Pkg.Info
		eachCall(fd, func(call *ast.CallExpr, callee *types.Func) {
			for i, arg := range call.Args {
				if !isSink(callee, i) {
					continue
				}
				tv, ok := info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					continue
				}
				if v, ok := constant.Uint64Val(tv.Value); ok && v == 0 {
					continue
				}
				what := "constant cycle cost"
				if _, lit := ast.Unparen(arg).(*ast.BasicLit); !lit {
					what = "named-constant cycle cost"
				}
				dest := "Delay"
				if !isDelaySink(callee) {
					dest = fmt.Sprintf("cost parameter %d of %s", i, callee.Name())
				}
				out = append(out, Finding{
					File: fd.File, Line: ctx.m.Fset.Position(arg.Pos()).Line,
					Analyzer: "costliteral",
					Msg: fmt.Sprintf("%s %s passed to %s; route it through the cost model (internal/mach/costs.go)",
						what, tv.Value.ExactString(), dest),
				})
			}
		})
	}
	return out
}
