// Package ssa is the repository's static-analysis tier: a stdlib-only
// module loader (go/types over the GOROOT source importer), a
// def-use/SSA-form IR with minimal phis, lowered from per-function CFGs
// built as the IR's own blocks, and interprocedural summaries computed
// over a fixpoint call graph. Every analyzer runs off one shared
// typecheck and, determinism (which reads import specs) aside, off one
// shared SSA program built from it; the lowering records the constants,
// struct-literal fields, function values and map-range blocks the
// analyzers ask about, so they do not re-derive those from syntax:
//
//   - determinism: banned imports (time, math/rand) by import path, so
//     aliased, dot and blank imports cannot slip through.
//   - costliteral: constant cycle costs charged in the machine-model
//     packages — literals, named constants and constants routed through
//     thin Delay wrappers — must come from the cost model instead.
//   - observerpurity: hook/observer/probe literals must not mutate the
//     state they observe (reached through a pointer, slice or map) or
//     package-level variables, even through mutating method calls or
//     local aliases.
//   - flushobligation: every value of type mm.FlushRange returned by a
//     module call must reach a shootdown discharge (kernel.Flusher's
//     FlushAfter, or a callee proven to discharge it) on every path or be
//     returned to the caller.
//   - lockorder: a static lockdep over the call graph — acquisition-order
//     cycles between mm.RWSem classes are reported without running a
//     single seed.
//   - detflow: a nondeterminism-taint analysis proving the parallel
//     harness guarantee statically. Sources (time.Now, math/rand outside
//     fault.Decide, map-range order, select arms, goroutine identity)
//     must never flow into simulated state, StateDigest inputs, stats, or
//     event timestamps, and no simulated time may be charged inside a map
//     range; sorting sanitizes iteration-order taint.
//   - parallelsafe: a whole-program restore-discipline proof for
//     package-level mutable vars in simulated packages.
//   - mhp, lockset: IPI-handler reach (no blocking call in a
//     responder's handler), and RacerD-style discharge proofs for every
//     field the dynamic race model instruments, CPU confinement among
//     them: kernel.CPU's owner check before every confined access.
//
// No comment waives a finding: an access, obligation or bound the tier
// cannot prove is reported, and the fix is a proof the analyzer can
// follow. Findings are sorted by file, line and analyzer, so output is
// byte-identical no matter how the caller schedules the work.
package ssa

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer hit.
type Finding struct {
	// File is the module-relative path (slash-separated).
	File string
	// Line is the 1-based source line.
	Line int
	// Analyzer names the rule that fired.
	Analyzer string
	// Msg explains the violation.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Msg)
}

// inFixture reports whether a module-relative file path is a testdata
// fixture; fixtures opt into the scoped analyzers regardless of
// directory, so firing tests can live under testdata.
func inFixture(rel string) bool {
	return strings.Contains(rel, "sanitizer/ssa/testdata/")
}

// Result is the outcome of an analysis run.
type Result struct {
	Findings []Finding
	// Witnesses are the expected rediscoveries of config-seeded faults:
	// violations the lockset prover finds at a deliberately broken site
	// (fault.MutantEarlyAck). They are not findings — the breakage is
	// intentional — but their exact count is part of the
	// cross-validation contract with the dynamic oracles.
	Witnesses []Finding
	// XVal is the cross-validation report: one row per internal/race
	// registry entry with its static discharge status.
	XVal []XValRow
	// FuncsVisited counts, per analyzer, the function declarations walked;
	// the coverage-floor test asserts every analyzer but determinism visits
	// every declaration the loader found.
	FuncsVisited map[string]int
	// Timings holds per-analyzer wall-clock milliseconds. Reports keep it
	// out of the byte-identical sections: it is footer-only diagnostics.
	Timings map[string]float64
}

// lockResult carries the lockset analyzer's extra outputs to Result.
type lockResult struct {
	witnesses []Finding
	xval      []XValRow
}

// modCtx is the shared context every analyzer receives.
type modCtx struct {
	m    *Module
	pkgs []*Package
	// visited records per-analyzer function coverage (written by each
	// analyzer, read by coverage-floor tests).
	visited map[string]int
	// lockRes is filled by checkLockset for run() to lift into Result.
	lockRes *lockResult
	// prog caches the whole-module SSA form shared by the analyzers.
	prog *Program
	// mhp caches the handler-reach fact (built by checkMHP, which reports
	// blocking calls in handler reach, and reused by lockset's
	// ack-ordering proofs).
	mhp *mhpInfo
}

// CheckModuleOnly runs only the named analyzers (all when names is empty)
// over an already-loaded module, sharing one typecheck.
func CheckModuleOnly(m *Module, names []string) *Result {
	return run(m, m.Pkgs, nil, names)
}

// Analyzers lists the analyzer names in execution order, for -only flag
// validation.
func Analyzers() []string {
	var out []string
	for _, an := range analyzerTable {
		out = append(out, an.name)
	}
	return out
}

// CheckFixture typechecks one testdata fixture against the module and runs
// the named analyzers (all when names is empty) with the fixture in scope,
// reporting only findings located in the fixture's file.
func CheckFixture(m *Module, file string, names []string) (*Result, error) {
	fp, err := m.LoadFixture(file)
	if err != nil {
		return nil, err
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	return run(m, pkgs, fp, names), nil
}

// analyzerTable lists the analyzers in execution order.
var analyzerTable = []struct {
	name string
	run  func(*modCtx) []Finding
}{
	{"determinism", checkDeterminism},
	{"costliteral", checkCostLiteral},
	{"observerpurity", checkObserverPurity},
	{"flushobligation", checkFlushObligation},
	{"lockorder", checkLockOrder},
	{"detflow", checkDetFlow},
	{"parallelsafe", checkParallelSafe},
	{"mhp", checkMHP},
	{"lockset", checkLockset},
}

// run executes the analyzers over pkgs. When only is non-nil, findings are
// restricted to that package's files (fixture mode); module-wide context
// (summaries, call graph) still spans all of pkgs. When names is non-empty,
// only the named analyzers execute.
func run(m *Module, pkgs []*Package, only *Package, names []string) *Result {
	ctx := &modCtx{m: m, pkgs: pkgs, visited: make(map[string]int)}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	res := &Result{Timings: make(map[string]float64)}
	for _, an := range analyzerTable {
		if len(want) > 0 && !want[an.name] {
			continue
		}
		start := time.Now()
		fs := an.run(ctx)
		res.Timings[an.name] += float64(time.Since(start).Nanoseconds()) / 1e6
		res.Findings = append(res.Findings, fs...)
	}
	if ctx.lockRes != nil {
		res.Witnesses = append(res.Witnesses, ctx.lockRes.witnesses...)
		res.XVal = ctx.lockRes.xval
	}
	res.FuncsVisited = ctx.visited
	if only != nil {
		inOnly := make(map[string]bool)
		for _, f := range only.FileNames {
			inOnly[f] = true
		}
		res.Findings = keepFiles(res.Findings, inOnly)
		res.Witnesses = keepFiles(res.Witnesses, inOnly)
	}
	sortFindings(res.Findings)
	sortFindings(res.Witnesses)
	return res
}

// keepFiles keeps the findings located in the given files.
func keepFiles(fs []Finding, files map[string]bool) []Finding {
	var out []Finding
	for _, f := range fs {
		if files[f.File] {
			out = append(out, f)
		}
	}
	return out
}

// sortFindings is the one canonical finding order: file, line, analyzer,
// message. Every analyzer and the combined report sort through it so
// output is byte-identical no matter how the caller schedules the work.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Msg < fs[j].Msg
	})
}

// funcIdent names fd as "pkg.Func" or "pkg.Recv.Method" for reports.
func funcIdent(fd FuncDecl) string {
	name := fd.Obj.Name()
	if sig, ok := fd.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	return fd.Obj.Pkg().Name() + "." + name
}

// posLine locates pos as a (module-relative file, line) pair within fd's
// package, falling back to the declaring file when pos is synthetic.
func (ctx *modCtx) posLine(fd FuncDecl, pos token.Pos) (string, int) {
	_, rel := fd.Pkg.FileOf(pos)
	if rel == "" {
		rel = fd.File
	}
	return rel, ctx.m.Fset.Position(pos).Line
}
