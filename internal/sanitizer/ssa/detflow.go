package ssa

import (
	"fmt"
	"go/types"
	"strings"
)

// detflow proves the parallel-harness guarantee statically: experiment
// cells replay byte-identically because nothing nondeterministic ever
// reaches simulated state. The analyzer is a forward taint analysis over
// the SSA value graph with interprocedural summaries.
//
// Sources (each carries a human-readable label through the flow):
//
//   - wall clock: time.Now / time.Since / time.Until
//   - the global PRNG: any math/rand call outside fault.Decide, the one
//     sanctioned consumer of external randomness
//   - scheduler identity: runtime.NumCPU / NumGoroutine / GOMAXPROCS
//   - map iteration order: the key/value bindings of a range over a map
//   - select arm choice: values received in a select communication clause
//
// Sinks:
//
//   - stores into simulated state — a field of a type declared in a
//     parallelScope package, or a package-level var of one (this covers
//     stats: counters are simulated state too)
//   - arguments to any module function whose name contains "Digest"
//     (StateDigest and friends must be replay-stable by definition)
//   - event timestamps: sim.Proc.Delay, sim.Cond.WaitTimeout,
//     sim.Cond.WaitPoll (its timeout and its period), sim.Engine.At,
//     sim.Engine.After — and any call of those inside a
//     map range, whatever its argument: map order decides which
//     iteration charges time first, so even a constant cost reorders
//     the events interleaved with it
//
// Sanitizer: passing a value to sort.* kills iteration-order taint — the
// canonical fix for map-range nondeterminism is collect-then-sort, and
// after sorting the same SSA value is order-stable.
//
// Taint crosses function boundaries two ways: summaries record which
// parameters (and intrinsic sources) reach a function's results, and
// stores of tainted values into globals or struct fields taint every read
// of that global/field module-wide. Both are iterated to a fixpoint.

// dfSummary is the interprocedural taint behaviour of one function.
type dfSummary struct {
	// srcResult, when non-empty, labels a nondeterminism source that
	// reaches a result regardless of the arguments.
	srcResult string
	// paramFlow marks parameter indices (-1 for the receiver) whose taint
	// flows into a result.
	paramFlow map[int]bool
}

// keep folds an earlier round's summary into s: a label once given stays
// (recomputing it from the first tainted return can cycle through mutually
// recursive sources forever) and parameter flows only accumulate.
func (s *dfSummary) keep(old *dfSummary) {
	if old.srcResult != "" {
		s.srcResult = old.srcResult
	}
	for k := range old.paramFlow {
		s.paramFlow[k] = true
	}
}

func (s *dfSummary) equal(o *dfSummary) bool {
	if s.srcResult != o.srcResult || len(s.paramFlow) != len(o.paramFlow) {
		return false
	}
	for k := range s.paramFlow {
		if !o.paramFlow[k] {
			return false
		}
	}
	return true
}

// dfAnalysis is the module-wide fixpoint state.
type dfAnalysis struct {
	ctx  *modCtx
	prog *Program
	// sums holds per-function taint summaries.
	sums map[*types.Func]*dfSummary
	// globalTaint and fieldTaint label package-level vars and struct
	// fields some unit stored a tainted value into.
	globalTaint map[string]string
	fieldTaint  map[*types.Var]string
}

// checkDetFlow runs the nondeterminism-taint analysis.
func checkDetFlow(ctx *modCtx) []Finding {
	a := &dfAnalysis{
		ctx:         ctx,
		prog:        ctx.program(),
		sums:        make(map[*types.Func]*dfSummary),
		globalTaint: make(map[string]string),
		fieldTaint:  make(map[*types.Var]string),
	}
	// Fixpoint over summaries and global/field taint, run until nothing
	// changes: every fact only grows (a global, field or summary label is
	// set once, parameter flows accumulate), so the rounds stop, and
	// stopping early would leave a deep wrapper chain's summaries
	// unfinished and its sink unreported.
	for changed := true; changed; {
		changed = false
		a.prog.eachUnit(func(f *Func) {
			taint := a.localTaint(f)
			if a.recordStores(f, taint) {
				changed = true
			}
			if f.Lit != nil {
				return
			}
			sum := a.summarize(f, taint)
			if old := a.sums[f.Decl.Obj]; old != nil {
				sum.keep(old)
				if old.equal(sum) {
					return
				}
			}
			a.sums[f.Decl.Obj] = sum
			changed = true
		})
	}
	// Final pass: report sinks.
	var findings []Finding
	seen := make(map[string]bool)
	report := func(f *Func, v *Value, msg string) {
		file, line := a.ctx.posLine(f.Decl, v.Pos)
		key := fmt.Sprintf("%s:%d:%s", file, line, msg)
		if seen[key] {
			return
		}
		seen[key] = true
		findings = append(findings, Finding{
			File: file, Line: line, Analyzer: "detflow", Msg: msg,
		})
	}
	a.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			a.ctx.visited["detflow"]++
		}
		taint := a.localTaint(f)
		a.reportSinks(f, taint, report)
	})
	return findings
}

// localTaint computes the taint label of every value in f under the
// current summaries and global/field taint.
func (a *dfAnalysis) localTaint(f *Func) map[*Value]string {
	sanitized := a.sanitizedValues(f)
	taint := make(map[*Value]string)
	for changed := true; changed; {
		changed = false
		for _, v := range f.values {
			if taint[v] != "" || sanitized[v] {
				continue
			}
			if l := a.valueTaint(f, v, taint, sanitized); l != "" {
				taint[v] = l
				changed = true
			}
		}
	}
	return taint
}

// sanitizedValues marks every value passed to sort.* (and its passthrough
// aliases) as order-stable.
func (a *dfAnalysis) sanitizedValues(f *Func) map[*Value]bool {
	sanitized := make(map[*Value]bool)
	var mark func(v *Value)
	mark = func(v *Value) {
		if v == nil || sanitized[v] {
			return
		}
		sanitized[v] = true
		if v.Kind == VAddr || v.Kind == VDeref {
			mark(v.Base)
		}
	}
	for _, v := range f.values {
		if v.Kind != VCall || v.Callee == nil || v.Callee.Pkg() == nil {
			continue
		}
		if v.Callee.Pkg().Path() == "sort" {
			for _, arg := range v.Args {
				mark(arg)
			}
		}
	}
	return sanitized
}

// valueTaint computes one value's label from its sources and operands.
func (a *dfAnalysis) valueTaint(f *Func, v *Value, taint map[*Value]string, sanitized map[*Value]bool) string {
	if l := a.sourceLabel(f, v); l != "" {
		return l
	}
	get := func(o *Value) string {
		if o == nil || sanitized[o] {
			return ""
		}
		return taint[o]
	}
	switch v.Kind {
	case VCall:
		if v.Callee != nil && moduleFunc(v.Callee) {
			var label string
			for _, target := range a.prog.calleesOf(v) {
				sum := a.sums[target]
				if sum == nil {
					continue
				}
				if sum.srcResult != "" && label == "" {
					label = sum.srcResult
				}
				for i, arg := range v.Args {
					if sum.paramFlow[paramIndexOf(target, i)] && label == "" {
						label = get(arg)
					}
				}
				if sum.paramFlow[-1] && label == "" {
					label = get(v.Base)
				}
			}
			return label
		}
		// Builtins, stdlib and func-valued calls: any tainted operand
		// taints the result.
		for _, arg := range v.Args {
			if l := get(arg); l != "" {
				return l
			}
		}
		return get(v.Base)
	case VGlobal:
		return a.globalTaint[AliasClass(v)]
	case VFieldRead:
		if v.Obj != nil {
			if l := a.fieldTaint[v.Obj]; l != "" {
				return l
			}
		}
		return get(v.Base)
	default:
		for _, arg := range v.Args {
			if l := get(arg); l != "" {
				return l
			}
		}
		return get(v.Base)
	}
}

// sourceLabel reports whether v is itself a nondeterminism source.
func (a *dfAnalysis) sourceLabel(f *Func, v *Value) string {
	switch v.Kind {
	case VCall:
		if v.Callee == nil || v.Callee.Pkg() == nil {
			return ""
		}
		pkg, name := v.Callee.Pkg().Path(), v.Callee.Name()
		switch pkg {
		case "time":
			if name == "Now" || name == "Since" || name == "Until" {
				return "wall clock (time." + name + ")"
			}
		case "math/rand", "math/rand/v2":
			if a.inFaultDecide(f) {
				return ""
			}
			return "global PRNG (" + pkg + "." + name + ")"
		case "runtime":
			if name == "NumCPU" || name == "NumGoroutine" || name == "GOMAXPROCS" {
				return "scheduler identity (runtime." + name + ")"
			}
		}
	case VRangeKey, VRangeVal:
		if v.Base != nil && v.Base.Type != nil {
			if _, ok := v.Base.Type.Underlying().(*types.Map); ok {
				return "map iteration order"
			}
		}
	case VOp:
		if v.Block != nil && v.Block.SelectComm {
			return "select arm choice"
		}
	}
	return ""
}

// inFaultDecide reports whether f lowers fault.Decide (or a literal inside
// it) — the single sanctioned consumer of external randomness.
func (a *dfAnalysis) inFaultDecide(f *Func) bool {
	return f.Decl.Pkg.Path == modPath+"/internal/fault" && f.Decl.Obj.Name() == "Decide"
}

// recordStores taints globals and fields written with tainted values;
// reports whether anything new was learned.
func (a *dfAnalysis) recordStores(f *Func, taint map[*Value]string) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IStore || in.Val == nil || taint[in.Val] == "" {
				continue
			}
			addr := in.Addr
			for addr != nil && (addr.Kind == VAddr || addr.Kind == VDeref) {
				addr = addr.Base
			}
			if addr == nil {
				continue
			}
			label := taint[in.Val]
			switch addr.Kind {
			case VGlobal:
				if key := AliasClass(addr); key != "" && a.globalTaint[key] == "" {
					a.globalTaint[key] = label
					changed = true
				}
			case VFieldRead:
				if addr.Obj != nil && a.fieldTaint[addr.Obj] == "" {
					a.fieldTaint[addr.Obj] = label
					changed = true
				}
			}
		}
	}
	return changed
}

// summarize derives f's interprocedural taint summary from its returns.
func (a *dfAnalysis) summarize(f *Func, taint map[*Value]string) *dfSummary {
	sum := &dfSummary{paramFlow: make(map[int]bool)}
	memo := make(map[*Value]map[int]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IReturn {
				continue
			}
			for _, res := range in.Results {
				if sum.srcResult == "" && taint[res] != "" {
					sum.srcResult = taint[res]
				}
				for idx := range a.reachParams(res, memo) {
					sum.paramFlow[idx] = true
				}
			}
		}
	}
	return sum
}

// reachParams walks the value graph backwards from v collecting the
// parameter indices (-1 for the receiver) whose taint could reach it.
func (a *dfAnalysis) reachParams(v *Value, memo map[*Value]map[int]bool) map[int]bool {
	if v == nil {
		return nil
	}
	if got, ok := memo[v]; ok {
		return got // in-progress entries are nil: cycles contribute nothing
	}
	memo[v] = nil
	out := make(map[int]bool)
	add := func(set map[int]bool) {
		for k := range set {
			out[k] = true
		}
	}
	switch v.Kind {
	case VParam:
		out[v.ResIdx] = true
	case VRecv:
		out[-1] = true
	case VConst, VZero, VGlobal:
		// No parameter dependence.
	case VCall:
		if v.Callee != nil && moduleFunc(v.Callee) {
			for _, target := range a.prog.calleesOf(v) {
				sum := a.sums[target]
				if sum == nil {
					continue
				}
				for i, arg := range v.Args {
					if sum.paramFlow[paramIndexOf(target, i)] {
						add(a.reachParams(arg, memo))
					}
				}
				if sum.paramFlow[-1] {
					add(a.reachParams(v.Base, memo))
				}
			}
		} else {
			for _, arg := range v.Args {
				add(a.reachParams(arg, memo))
			}
			add(a.reachParams(v.Base, memo))
		}
	default:
		for _, arg := range v.Args {
			add(a.reachParams(arg, memo))
		}
		add(a.reachParams(v.Base, memo))
	}
	memo[v] = out
	return out
}

// reportSinks emits a finding for every tainted value reaching a sink.
func (a *dfAnalysis) reportSinks(f *Func, taint map[*Value]string, report func(*Func, *Value, string)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != IStore || in.Val == nil || taint[in.Val] == "" {
				continue
			}
			if desc := simulatedStateDesc(in.Addr); desc != "" {
				report(f, in.Addr, fmt.Sprintf(
					"nondeterministic value (%s) stored into simulated state %s — worlds must replay byte-identically; derive it from the seeded sim clock/PRNG instead",
					taint[in.Val], desc))
			}
		}
		for _, call := range b.Calls {
			if call.Callee == nil {
				continue
			}
			if moduleFunc(call.Callee) && strings.Contains(call.Callee.Name(), "Digest") {
				for _, arg := range call.Args {
					if taint[arg] != "" {
						report(f, call, fmt.Sprintf(
							"nondeterministic value (%s) flows into %s — digest inputs must be replay-stable (sort map-derived data, use sim time)",
							taint[arg], call.Callee.Name()))
						break
					}
				}
			}
			lo, hi, ok := timingSinkArgs(call.Callee)
			if !ok || hi >= len(call.Args) {
				continue
			}
			tainted := ""
			for _, arg := range call.Args[lo : hi+1] {
				if tainted = taint[arg]; tainted != "" {
					break
				}
			}
			switch {
			case tainted != "":
				report(f, call, fmt.Sprintf(
					"nondeterministic value (%s) used as an event timestamp in %s — simulated time must come from the deterministic engine",
					tainted, call.Callee.Name()))
			case b.MapRange:
				report(f, call, fmt.Sprintf(
					"%s inside iteration over a map: map order is random, so the interleaving of charged time becomes irreproducible — iterate a sorted copy",
					call.Callee.Name()))
			}
		}
	}
}

// simulatedStateDesc names the simulated-state location addr writes, or ""
// when the store target is not simulated state. A location is simulated
// state when it is (a field chain or element of) a package-level var or
// struct type declared in a parallelScope package.
func simulatedStateDesc(addr *Value) string {
	for v := addr; v != nil; {
		switch v.Kind {
		case VGlobal:
			if v.Obj != nil && simulatedPkg(v.Obj.Pkg()) {
				return v.Obj.Pkg().Name() + "." + v.Obj.Name()
			}
			return ""
		case VFieldRead:
			if v.Obj != nil && simulatedPkg(v.Obj.Pkg()) {
				owner := v.Obj.Pkg().Name()
				if n := namedType(v.Base.Type); n != nil {
					owner = owner + "." + n.Obj().Name()
				}
				return owner + "." + v.Obj.Name()
			}
			v = v.Base
		case VIndexRead, VAddr, VDeref:
			v = v.Base
		default:
			return ""
		}
	}
	return ""
}

// simulatedPkg reports whether pkg is one of the simulated packages the
// parallel harness schedules concurrently.
func simulatedPkg(pkg *types.Package) bool {
	if pkg == nil || !strings.HasPrefix(pkg.Path(), modPath+"/") {
		return false
	}
	return inParallelScope(strings.TrimPrefix(pkg.Path(), modPath+"/") + "/")
}

// moduleFunc reports whether fn is declared inside the module.
func moduleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && (fn.Pkg().Path() == modPath ||
		strings.HasPrefix(fn.Pkg().Path(), modPath+"/"))
}

// timingSinkArgs returns the argument indices lo..hi carrying a simulated
// timestamp or delay for the sim-layer timing primitives.
func timingSinkArgs(fn *types.Func) (lo, hi int, ok bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != modPath+"/internal/sim" {
		return 0, 0, false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		}
	}
	switch recv + "." + fn.Name() {
	case "Proc.Delay", "Engine.At", "Engine.After":
		return 0, 0, true
	case "Cond.WaitTimeout":
		return 1, 1, true
	case "Cond.WaitPoll":
		return 1, 2, true
	}
	return 0, 0, false
}

// paramIndexOf maps argument position i at a call to fn onto fn's
// parameter index, folding variadic tails onto the last parameter.
func paramIndexOf(fn *types.Func, i int) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return i
	}
	if n := sig.Params().Len(); n > 0 && i >= n {
		return n - 1
	}
	return i
}
