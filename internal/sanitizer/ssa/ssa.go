// Package ssa is the repository's static-analysis tier: a stdlib-only
// module loader (go/types over the GOROOT source importer), a
// def-use/SSA-form IR lowered from per-function CFGs, and interprocedural
// summaries computed over a fixpoint call graph. Every analyzer runs off
// one shared typecheck:
//
//   - determinism: banned imports (time, math/rand) by import path, so
//     aliased, dot and blank imports cannot slip through.
//   - costliteral: constant cycle costs charged in the machine-model
//     packages — literals, named constants and constants routed through
//     thin Delay wrappers — must come from the cost model instead.
//   - observerpurity: hook/observer/probe literals must not mutate the
//     state they observe or package-level variables, even through
//     mutating method calls or local aliases.
//   - flushobligation: every value of type mm.FlushRange returned by a
//     module call must reach a shootdown discharge (kernel.Flusher's
//     FlushAfter, or a callee proven to discharge it) on every path, be
//     returned to the caller, or carry an "obligation-transferred:" marker.
//   - lockorder: a static lockdep over the call graph — acquisition-order
//     cycles between mm.RWSem classes are reported without running a
//     single seed.
//   - ipistate: a typestate checker for the shootdown request lifecycle.
//     Every smp.Request born from CallMany must follow the DFA
//     new → kicked → waited → (acked | timeout → rekick{≤MaxKickRetries}
//     → degrade-to-full) → discharged on every path: no wait-before-kick,
//     no double-discharge, no leaked in-flight request. Deferred-discharge
//     edges (return or enqueue to a field) transfer the obligation to the
//     consumer.
//   - detflow: a nondeterminism-taint analysis proving the parallel
//     harness guarantee statically. Sources (time.Now, math/rand outside
//     fault.Decide, map-range order, select arms, goroutine identity)
//     must never flow into simulated state, StateDigest inputs, stats, or
//     event timestamps, and no simulated time may be charged inside a map
//     range; sorting sanitizes iteration-order taint.
//   - parallelsafe: a whole-program restore-discipline proof for
//     package-level mutable vars in simulated packages.
//   - mhp, lockset: may-happen-in-parallel contexts and RacerD-style
//     discharge proofs for every field the dynamic race model instruments.
//   - fabproof: numeric abstract-interpretation proofs for the async
//     shootdown fabric.
//   - stalemarker: suppression markers that no analyzer consumed are
//     themselves findings, so retired suppressions cannot linger.
//
// Findings are sorted by file, line and analyzer, so output is
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

// Suppression records a finding silenced by a documented marker, so
// suppressions stay auditable (tlbfuzz prints them next to failures).
type Suppression struct {
	// File and Line locate the suppressed site (module-relative).
	File string
	Line int
	// Analyzer names the rule that would have fired.
	Analyzer string
	// Reason is the marker text after the colon.
	Reason string
}

// The comment markers that waive a finding. Each covers its own line and
// the line below it; an unconsumed one is a stalemarker finding.
const (
	// transferMarker waives a flush obligation.
	transferMarker = "obligation-transferred:"
	// lockFreeMarker documents why an access to shared state needs no
	// lock/atomic/ownership discharge.
	lockFreeMarker = "lock-free-by-design:"
	// fabBoundMarker documents why a fabric bound the numeric tier cannot
	// discharge holds anyway.
	fabBoundMarker = "bounded-by-design:"
)

// markerIndex maps file → line → marker reason.
type markerIndex map[string]map[int]string

// collectMarkers indexes every comment starting with marker.
func collectMarkers(fset *token.FileSet, pkgs []*Package, marker string) markerIndex {
	out := make(markerIndex)
	for _, p := range pkgs {
		for i, f := range p.Files {
			rel := p.FileNames[i]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Only a comment that *starts* with the marker counts;
					// prose that merely mentions the marker string (docs,
					// quoted examples) is not a waiver.
					text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
					if !strings.HasPrefix(text, marker) {
						continue
					}
					if out[rel] == nil {
						out[rel] = make(map[int]string)
					}
					out[rel][fset.Position(c.End()).Line] = strings.TrimSpace(text[len(marker):])
				}
			}
		}
	}
	return out
}

// inFixture reports whether a module-relative file path is a testdata
// fixture; fixtures opt into the scoped analyzers regardless of
// directory, so firing tests can live under testdata.
func inFixture(rel string) bool {
	return strings.Contains(rel, "sanitizer/ssa/testdata/")
}

// Result is the outcome of an analysis run.
type Result struct {
	Findings     []Finding
	Suppressions []Suppression
	// Witnesses are the expected rediscoveries of config-seeded faults:
	// violations the lockset prover finds at deliberately broken sites
	// (Config.BrokenEarlyAck). They are not findings — the breakage is
	// intentional — but their exact count is part of the cross-validation
	// contract with the dynamic race model.
	Witnesses []Finding
	// XVal is the cross-validation report: one row per internal/race
	// registry entry with its static discharge status.
	XVal []XValRow
	// FabRows is the fabproof report: one row per fabric obligation with
	// its proof status (proven / waived / unproven). CI fails on any
	// unproven row, mirroring the XVal artifact.
	FabRows []FabRow
	// FuncsVisited counts, per analyzer, the function declarations walked;
	// the coverage-floor test asserts the whole-program analyzers visit
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
	// markers indexes "obligation-transferred:" comments.
	markers markerIndex
	// visited records per-analyzer function coverage (written by each
	// analyzer, read by coverage-floor tests).
	visited map[string]int
	// usedMarkers records marker lines consumed as suppressions, keyed by
	// file then marker line, so stalemarker can flag the rest.
	usedMarkers map[string]map[int]bool
	// lockMarkers/usedLockMarkers do the same for the lockset tier's
	// "lock-free-by-design:" waivers.
	lockMarkers     markerIndex
	usedLockMarkers map[string]map[int]bool
	// fabMarkers/usedFabMarkers do the same for the fabproof tier's
	// "bounded-by-design:" waivers.
	fabMarkers     markerIndex
	usedFabMarkers map[string]map[int]bool
	// lockRes is filled by checkLockset for run() to lift into Result.
	lockRes *lockResult
	// fabRes is filled by checkFabproof for run() to lift into Result.
	fabRes *fabResult
	// prog caches the whole-module SSA form shared by the analyzers.
	prog *Program
	// mhp caches the may-happen-in-parallel facts (built by checkMHP,
	// reused by lockset's confinement and handler-reachability proofs).
	mhp *mhpInfo
}

func (ctx *modCtx) markerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.markers, ctx.usedMarkers, file, line)
}

func (ctx *modCtx) lockMarkerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.lockMarkers, ctx.usedLockMarkers, file, line)
}

func (ctx *modCtx) fabMarkerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.fabMarkers, ctx.usedFabMarkers, file, line)
}

// consumeMarker resolves a marker covering line (on the line itself or
// the line above) and records the marker's own line as consumed, so
// stalemarker can flag the rest.
func consumeMarker(idx markerIndex, used map[string]map[int]bool, file string, line int) (string, bool) {
	ml := line
	r, ok := idx[file][ml]
	if !ok {
		ml = line - 1
		if r, ok = idx[file][ml]; !ok {
			return "", false
		}
	}
	if used[file] == nil {
		used[file] = make(map[int]bool)
	}
	used[file][ml] = true
	return r, true
}

// Check loads the enclosing module and runs every analyzer.
func Check() (*Result, error) {
	m, err := LoadModule()
	if err != nil {
		return nil, err
	}
	return CheckModule(m), nil
}

// CheckModule runs every analyzer over an already-loaded module.
func CheckModule(m *Module) *Result {
	return run(m, m.Pkgs, nil, nil)
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
// the analyzers with the fixture in scope, reporting only findings located
// in the fixture's file.
func CheckFixture(m *Module, file string) (*Result, error) {
	fp, err := m.LoadFixture(file)
	if err != nil {
		return nil, err
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	return run(m, pkgs, fp, nil), nil
}

// analyzerTable lists the analyzers in execution order. stalemarker must
// run last: it flags markers nothing else consumed, so it is skipped in
// -only runs that omit any marker-consuming analyzer.
var analyzerTable = []struct {
	name string
	run  func(*modCtx) ([]Finding, []Suppression)
}{
	{"determinism", checkDeterminism},
	{"costliteral", checkCostLiteral},
	{"observerpurity", checkObserverPurity},
	{"flushobligation", checkFlushObligation},
	{"lockorder", checkLockOrder},
	{"ipistate", checkIPIState},
	{"detflow", checkDetFlow},
	{"parallelsafe", checkParallelSafe},
	{"mhp", checkMHP},
	{"lockset", checkLockset},
	{"fabproof", checkFabproof},
	{"stalemarker", checkStaleMarkers},
}

// run executes the analyzers over pkgs. When only is non-nil, findings are
// restricted to that package's files (fixture mode); module-wide context
// (summaries, call graph) still spans all of pkgs. When names is non-empty,
// only the named analyzers execute — except stalemarker, which additionally
// requires every marker-consuming analyzer to have run (otherwise unconsumed
// markers would be false positives).
func run(m *Module, pkgs []*Package, only *Package, names []string) *Result {
	ctx := &modCtx{
		m:               m,
		pkgs:            pkgs,
		markers:         collectMarkers(m.Fset, pkgs, transferMarker),
		lockMarkers:     collectMarkers(m.Fset, pkgs, lockFreeMarker),
		fabMarkers:      collectMarkers(m.Fset, pkgs, fabBoundMarker),
		visited:         make(map[string]int),
		usedMarkers:     make(map[string]map[int]bool),
		usedLockMarkers: make(map[string]map[int]bool),
		usedFabMarkers:  make(map[string]map[int]bool),
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	partial := false
	for _, an := range analyzerTable {
		if len(want) > 0 && an.name != "stalemarker" && !want[an.name] {
			partial = true
		}
	}
	res := &Result{Timings: make(map[string]float64)}
	for _, an := range analyzerTable {
		if len(want) > 0 && !want[an.name] {
			continue
		}
		if an.name == "stalemarker" && partial {
			continue
		}
		start := time.Now()
		fs, sups := an.run(ctx)
		res.Timings[an.name] += float64(time.Since(start).Nanoseconds()) / 1e6
		res.Findings = append(res.Findings, fs...)
		res.Suppressions = append(res.Suppressions, sups...)
	}
	if ctx.lockRes != nil {
		res.Witnesses = append(res.Witnesses, ctx.lockRes.witnesses...)
		res.XVal = ctx.lockRes.xval
	}
	if ctx.fabRes != nil {
		res.Witnesses = append(res.Witnesses, ctx.fabRes.witnesses...)
		res.FabRows = ctx.fabRes.rows
	}
	res.FuncsVisited = ctx.visited
	if only != nil {
		inOnly := make(map[string]bool)
		for _, f := range only.FileNames {
			inOnly[f] = true
		}
		res.Findings = keepFiles(res.Findings, inOnly, func(f Finding) string { return f.File })
		res.Suppressions = keepFiles(res.Suppressions, inOnly, func(s Suppression) string { return s.File })
		res.Witnesses = keepFiles(res.Witnesses, inOnly, func(f Finding) string { return f.File })
	}
	sortFindings(res.Findings)
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	sortFindings(res.Witnesses)
	return res
}

// keepFiles keeps the entries of xs located in the given files.
func keepFiles[T any](xs []T, files map[string]bool, file func(T) string) []T {
	var out []T
	for _, x := range xs {
		if files[file(x)] {
			out = append(out, x)
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

// checkStaleMarkers reports every suppression marker that no analyzer
// consumed: a retired suppression is itself a finding, so dead waivers
// cannot accumulate in the tree.
func checkStaleMarkers(ctx *modCtx) ([]Finding, []Suppression) {
	var findings []Finding
	for _, mk := range []struct {
		idx    markerIndex
		used   map[string]map[int]bool
		marker string
		why    string
	}{
		{ctx.markers, ctx.usedMarkers, transferMarker,
			"the flush obligation here is already proven discharged"},
		{ctx.lockMarkers, ctx.usedLockMarkers, lockFreeMarker,
			"the lockset tier proves this access disciplined without a waiver"},
		{ctx.fabMarkers, ctx.usedFabMarkers, fabBoundMarker,
			"the fabproof tier proves this bound without a waiver"},
	} {
		for file, lines := range mk.idx {
			for line := range lines {
				if mk.used[file][line] {
					continue
				}
				findings = append(findings, Finding{
					File: file, Line: line, Analyzer: "stalemarker",
					Msg: "stale \"" + mk.marker + "\" marker: " + mk.why + "; delete the marker",
				})
			}
		}
	}
	return findings, nil
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
