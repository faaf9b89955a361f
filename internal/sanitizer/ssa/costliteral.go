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
	// Every statically resolved call, with the unit it sits in.
	type site struct {
		f    *Func
		call *Value
	}
	var sites []site
	ctx.program().eachUnit(func(f *Func) {
		if f.Lit == nil {
			ctx.visited["costliteral"]++
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if call.Callee != nil {
					sites = append(sites, site{f, call})
				}
			}
		}
	})

	// Fixpoint: a parameter is cost-like when its function passes it whole
	// (parens and conversions lower to the operand itself) to Delay or to
	// an already cost-like parameter, from its own body, from a loop or
	// join (a phi of the parameter's variable) or from a literal that
	// captures it. Thin wrappers of wrappers converge in a few rounds.
	costLike := make(map[costParam]bool)
	isSink := func(callee *types.Func, i int) bool {
		return (isDelaySink(callee) && i == 0) || costLike[costParam{fn: callee, idx: i}]
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			for i, arg := range s.call.Args {
				key := costParam{fn: s.f.Decl.Obj, idx: declParamIndex(s.f, arg)}
				if key.idx >= 0 && isSink(s.call.Callee, i) && !costLike[key] {
					costLike[key] = true
					changed = true
				}
			}
		}
	}

	// Flag compile-time-constant arguments reaching a sink from cost-scope
	// code, judged on the argument as written: a constant is one the call
	// site spells out, not one a local was initialized with. Zero is
	// exempt: `Delay(0)` is an explicit no-op, not a cost.
	var out []Finding
	for _, s := range sites {
		if !inCostScope(s.f.Decl.File) {
			continue
		}
		for i, arg := range s.call.Call.Args {
			if !isSink(s.call.Callee, i) {
				continue
			}
			tv := s.f.info.Types[arg]
			if tv.Value == nil || tv.Value.Kind() != constant.Int {
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
			if !isDelaySink(s.call.Callee) {
				dest = fmt.Sprintf("cost parameter %d of %s", i, s.call.Callee.Name())
			}
			out = append(out, Finding{
				File: s.f.Decl.File, Line: ctx.m.Fset.Position(arg.Pos()).Line,
				Analyzer: "costliteral",
				Msg: fmt.Sprintf("%s %s passed to %s; route it through the cost model (internal/mach/costs.go)",
					what, tv.Value.ExactString(), dest),
			})
		}
	}
	return out
}

// declParamIndex is the index of the enclosing declaration's parameter
// that v reads, or -1: the parameter itself, the variable captured by a
// literal, or a phi merging the parameter's variable at a join or loop
// head (`for ... { p.Delay(cost) }` reads cost through one).
func declParamIndex(f *Func, v *Value) int {
	if v.Kind != VParam && v.Kind != VFree && v.Kind != VPhi {
		return -1
	}
	params := f.Decl.Obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v.Obj {
			return i
		}
	}
	return -1
}
