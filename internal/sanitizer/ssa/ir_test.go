package ssa

import (
	"fmt"
	"strings"
	"testing"
)

// phiSources returns the values a phi's operands reach through other
// phis: the definitions it merges.
func phiSources(phi *Value) map[*Value]bool {
	srcs := make(map[*Value]bool)
	seen := map[*Value]bool{phi: true}
	var walk func(v *Value)
	walk = func(v *Value) {
		if seen[v] {
			return
		}
		seen[v] = true
		if v.Kind != VPhi {
			srcs[v] = true
			return
		}
		for _, a := range v.Args {
			walk(a)
		}
	}
	for _, a := range phi.Args {
		walk(a)
	}
	return srcs
}

// TestModulePhisMinimal lowers the whole module and requires every phi to
// merge at least two definitions: one that stands for a single value is
// replaced by it, wherever it was an operand. The loop condition of
// kernel.(*CPU).DownWrite reads its semaphore parameter, so the receiver
// of TryDownWrite there has that parameter's alias class.
func TestModulePhisMinimal(t *testing.T) {
	m := sharedModule(t)
	prog := (&modCtx{m: m, pkgs: m.Pkgs}).program()
	phis := 0
	prog.eachUnit(func(f *Func) {
		listed := make(map[*Value]bool)
		for _, v := range f.Values() {
			listed[v] = true
		}
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				phis++
				if !listed[phi] {
					t.Errorf("%s: phi v%d is not among the unit's values", f.Name(), phi.ID)
				}
				if len(phiSources(phi)) == 1 {
					t.Errorf("%s: phi v%d of %s merges a single definition", f.Name(), phi.ID, phi.Obj.Name())
				}
			}
		}
	})
	t.Logf("%d phis", phis)

	var class string
	for obj, f := range prog.ByObj {
		if obj.Name() != "DownWrite" || f.Decl.Pkg.Path != kernelPkg {
			continue
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if call.Callee != nil && call.Callee.Name() == "TryDownWrite" {
					class = AliasClass(call.Base)
				}
			}
		}
	}
	if class != "p:1" {
		t.Errorf("DownWrite's TryDownWrite receiver has alias class %q, want \"p:1\"", class)
	}
}

// TestLoweringDeterministic lowers the module twice and requires every
// unit to number its values alike, with the same kinds and operands, so
// a value ID names the same value in every run.
func TestLoweringDeterministic(t *testing.T) {
	m := sharedModule(t)
	shapes := func() []string {
		var out []string
		(&modCtx{m: m, pkgs: m.Pkgs}).program().eachUnit(func(f *Func) {
			var b strings.Builder
			for _, v := range f.Values() {
				fmt.Fprintf(&b, " v%d:%d", v.ID, v.Kind)
				for _, a := range v.Args {
					fmt.Fprintf(&b, ",v%d", a.ID)
				}
			}
			out = append(out, f.Name()+b.String())
		})
		return out
	}
	first, second := shapes(), shapes()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("lowering the module twice numbered a unit's values differently:\n%s\n%s", first[i], second[i])
		}
	}
}
