package ssa

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shootdown/internal/sched"
)

// The module is typechecked once and shared: loading is the expensive
// part, the analyzers are read-only over the loaded data.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func sharedModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule() })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

func checkFixture(t *testing.T, name string) *Result {
	t.Helper()
	res, err := CheckFixture(sharedModule(t), filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("CheckFixture(%s): %v", name, err)
	}
	return res
}

func countBy(fs []Finding, analyzer string) int {
	n := 0
	for _, f := range fs {
		if f.Analyzer == analyzer {
			n++
		}
	}
	return n
}

func TestFlushObligationFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_flushobligation.go")
	if got := countBy(res.Findings, "flushobligation"); got != 1 {
		t.Fatalf("flushobligation findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "as.Unmap") {
		t.Fatalf("finding should name the creating call: %v", res.Findings[0])
	}
}

func TestFlushObligationGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_flushobligation.go")
	if len(res.Findings) != 0 {
		t.Fatalf("good fixture should be clean, got %v", res.Findings)
	}
	if len(res.Suppressions) != 1 {
		t.Fatalf("suppressions = %d, want exactly 1 (the marker): %v", len(res.Suppressions), res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "flushobligation" || !strings.Contains(s.Reason, "full-flushes") {
		t.Fatalf("unexpected suppression: %+v", s)
	}
}

func TestLockOrderFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_lockorder.go")
	if got := countBy(res.Findings, "lockorder"); got != 1 {
		t.Fatalf("lockorder findings = %d, want exactly 1: %v", got, res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "cycle") || !strings.Contains(f.Msg, "twoLocks.a") || !strings.Contains(f.Msg, "twoLocks.b") {
		t.Fatalf("cycle finding should name both lock classes: %v", f)
	}
}

func TestIPIStateWaitWithoutKickFires(t *testing.T) {
	res := checkFixture(t, "bad_ipistate.go")
	if got := countBy(res.Findings, "ipistate"); got != 1 {
		t.Fatalf("ipistate findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "wait before kick") {
		t.Fatalf("finding should name the skipped DFA edge: %v", res.Findings[0])
	}
}

func TestIPIStateDoubleDischargeFires(t *testing.T) {
	res := checkFixture(t, "bad_ipistate_double.go")
	if got := countBy(res.Findings, "ipistate"); got != 1 {
		t.Fatalf("ipistate findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "double discharge") {
		t.Fatalf("finding should name the repeated discharge: %v", res.Findings[0])
	}
}

func TestIPIStateGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_ipistate.go")
	if len(res.Findings) != 0 {
		t.Fatalf("lifecycle fixture should be clean (kick+wait, recovery ladder, both transfer edges), got %v", res.Findings)
	}
}

func TestDetFlowDigestFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_detflow.go")
	if got := countBy(res.Findings, "detflow"); got != 1 {
		t.Fatalf("detflow findings = %d, want exactly 1: %v", got, res.Findings)
	}
	// The only other finding is the time import the source needs.
	if got := countBy(res.Findings, "determinism"); got != 1 || len(res.Findings) != 2 {
		t.Fatalf("findings = %v, want the detflow finding plus one determinism import", res.Findings)
	}
	var f Finding
	for _, f = range res.Findings {
		if f.Analyzer == "detflow" {
			break
		}
	}
	if !strings.Contains(f.Msg, "StateDigest") || !strings.Contains(f.Msg, "wall clock") {
		t.Fatalf("finding should name the digest sink and the clock source: %v", f)
	}
}

func TestDetFlowGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_detflow.go")
	if len(res.Findings) != 0 {
		t.Fatalf("sorted-iteration fixture should be clean, got %v", res.Findings)
	}
}

func TestLocksetUnprovenAckFires(t *testing.T) {
	res := checkFixture(t, "bad_lockset.go")
	if got := countBy(res.Findings, "lockset"); got != 1 {
		t.Fatalf("lockset findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "mm.pt-nodes") || !strings.Contains(f.Msg, "FreedTables") {
		t.Fatalf("finding should name the ack-ordered entry and its guard: %v", f)
	}
}

func TestLocksetGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_lockset.go")
	if len(res.Findings) != 0 {
		t.Fatalf("guarded fixture should be clean, got %v", res.Findings)
	}
	if len(res.Suppressions) != 1 {
		t.Fatalf("suppressions = %d, want exactly 1 (the waiver): %v", len(res.Suppressions), res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "lockset" || !strings.Contains(s.Reason, "scratch") {
		t.Fatalf("unexpected suppression: %+v", s)
	}
}

func TestMHPBlockingFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_mhp.go")
	if got := countBy(res.Findings, "mhp"); got != 1 {
		t.Fatalf("mhp findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "DownRead") || !strings.Contains(f.Msg, "IPI-handler") {
		t.Fatalf("finding should name the blocking primitive and the context: %v", f)
	}
}

func TestStaleLockMarkerFires(t *testing.T) {
	res := checkFixture(t, "bad_lockmarker.go")
	if got := countBy(res.Findings, "stalemarker"); got != 1 {
		t.Fatalf("stalemarker findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "lock-free-by-design") {
		t.Fatalf("finding should name the marker vocabulary: %v", res.Findings[0])
	}
}

// TestLocksetBrokenEarlyAckWitness is the cross-validation contract: on
// the clean module the lockset prover must rediscover the config-seeded
// BrokenEarlyAck violation — as exactly one witness, on the same field
// the dynamic race model blames (mm.pt-nodes), at the forced early-ack
// assignment in core's Flusher — while producing zero findings.
func TestLocksetBrokenEarlyAckWitness(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("module should be clean, got %v", res.Findings)
	}
	var lockWits []Finding
	for _, w := range res.Witnesses {
		if w.Analyzer == "lockset" {
			lockWits = append(lockWits, w)
		}
	}
	if len(lockWits) != 1 {
		t.Fatalf("lockset witnesses = %d, want exactly 1 (the seeded BrokenEarlyAck site): %v", len(lockWits), res.Witnesses)
	}
	w := lockWits[0]
	if !strings.Contains(w.File, "internal/core/flusher.go") {
		t.Fatalf("witness should sit in the Flusher: %v", w)
	}
	for _, want := range []string{"mm.pt-nodes", "BrokenEarlyAck", "FreedTables"} {
		if !strings.Contains(w.Msg, want) {
			t.Fatalf("witness message should mention %q: %v", want, w)
		}
	}
}

// TestXValAllProven asserts every race-registry entry is statically
// discharged on the clean tree — the rows CI publishes as RACE_XVAL.txt.
func TestXValAllProven(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.XVal) == 0 {
		t.Fatal("expected one XVal row per registry entry, got none")
	}
	for i, r := range res.XVal {
		if r.Status != "proven" {
			t.Errorf("entry %s: status = %q, want proven (%s)", r.Key, r.Status, r.Detail)
		}
		if i > 0 && res.XVal[i-1].Key >= r.Key {
			t.Errorf("XVal rows out of order: %s before %s", res.XVal[i-1].Key, r.Key)
		}
	}
}

// TestRepoIsCleanWithoutWaivers is the tier's bar: the whole tree passes
// every analyzer with zero findings AND zero suppressions — no waiver
// marker is needed anywhere, because every discipline is proven.
func TestRepoIsCleanWithoutWaivers(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("repository should be clean, got %d finding(s):\n%v", len(res.Findings), res.Findings)
	}
	if len(res.Suppressions) != 0 {
		t.Fatalf("repository should need no suppression markers, got %v", res.Suppressions)
	}
}

// TestWholeProgramCoverageFloor asserts the interprocedural analyzers
// visited every function declaration the loader found — a silently
// narrowed walk (a lost package, an early bail) cannot pass as "clean".
func TestWholeProgramCoverageFloor(t *testing.T) {
	m := sharedModule(t)
	floor := len(allFuncs(m.Pkgs))
	if floor == 0 {
		t.Fatal("the module lists 0 functions — the floor itself is broken")
	}
	res := CheckModule(m)
	for _, an := range []string{"ipistate", "detflow", "parallelsafe", "mhp", "lockset", "fabproof"} {
		if got := res.FuncsVisited[an]; got < floor {
			t.Fatalf("%s visited %d functions, below the module floor %d", an, got, floor)
		}
	}
}

// TestLoadModuleCoverage pins the loader's actual reach: it must descend
// into cmd/ and examples/ (tools and example programs carry the same
// invariants), and the loaded-file count must clear a floor so a silently
// narrowed walk cannot pass as "clean".
func TestLoadModuleCoverage(t *testing.T) {
	m := sharedModule(t)
	files := 0
	prefixes := map[string]bool{}
	for _, p := range m.Pkgs {
		files += len(p.FileNames)
		prefixes[strings.SplitN(p.Dir, "/", 2)[0]] = true
	}
	// The repo has >75 non-test Go files today; the floor leaves headroom
	// for deletions while catching a walk that lost whole subtrees.
	const floor = 60
	if files <= floor {
		t.Fatalf("loaded %d files, want > %d — the walk lost coverage", files, floor)
	}
	for _, want := range []string{"cmd", "examples", "internal"} {
		if !prefixes[want] {
			t.Fatalf("no package loaded under %s/ (got %v)", want, prefixes)
		}
	}
}

// renderReport formats a Result exactly like cmd/tlbvet prints it.
func renderReport(res *Result) string {
	var b strings.Builder
	for _, f := range res.Findings {
		fmt.Fprintln(&b, f.String())
	}
	for _, w := range res.Witnesses {
		fmt.Fprintf(&b, "%s:%d: %s: witness: %s\n", w.File, w.Line, w.Analyzer, w.Msg)
	}
	for _, s := range res.Suppressions {
		fmt.Fprintf(&b, "%s:%d: %s: suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
	}
	for _, r := range res.FabRows {
		fmt.Fprintf(&b, "%s | %s | %s | %s\n", r.Key, r.Subject, r.Status, r.Detail)
	}
	return b.String()
}

// TestVetOutputParallelGolden is the golden scheduling test: concurrent
// runs over one shared loaded module (the analyses are read-only over the
// typechecked data) fanned out on the sched pool produce byte-identical
// reports at 1 worker and 8 workers, sorted by file, line and analyzer.
func TestVetOutputParallelGolden(t *testing.T) {
	m := sharedModule(t)
	pkgs := append([]*Package{}, m.Pkgs...)
	for _, name := range []string{"bad_ipistate.go", "bad_detflow.go", "bad_fabproof.go", "bad_determinism_alias.go"} {
		fp, err := m.LoadFixture(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, fp)
	}

	report := func() string {
		outs := sched.Collect(2, func(int) string { return renderReport(run(m, pkgs, nil, nil)) })
		if outs[0] != outs[1] {
			t.Fatalf("concurrent runs differ:\n%s\nvs:\n%s", outs[0], outs[1])
		}
		return outs[0]
	}

	prev := sched.SetWorkers(1)
	defer sched.SetWorkers(prev)
	one := report()
	sched.SetWorkers(8)
	eight := report()

	if one == "" {
		t.Fatal("expected findings from the loaded fixtures")
	}
	if one != eight {
		t.Fatalf("-parallel 1 and -parallel 8 reports differ:\n%s\nvs:\n%s", one, eight)
	}
	assertSorted(t, run(m, pkgs, nil, nil).Findings)
}

// assertSorted fails unless fs is ordered by file, then line, then analyzer.
func assertSorted(t *testing.T, fs []Finding) {
	t.Helper()
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Analyzer > b.Analyzer) {
			t.Fatalf("findings out of order at %d: %v before %v", i, a, b)
		}
	}
}

// TestVetOutputOrderedAndParallelStable runs the fixture-scoped driver from
// plain goroutines, without the sched pool: four concurrent runs over the
// same loaded module and one fixture produce byte-identical, sorted reports.
func TestVetOutputOrderedAndParallelStable(t *testing.T) {
	m := sharedModule(t)
	fp, err := m.LoadFixture(filepath.Join("testdata", "bad_determinism_alias.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)

	const runs = 4
	out := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = renderReport(run(m, pkgs, fp, nil))
		}(i)
	}
	wg.Wait()

	if out[0] == "" {
		t.Fatal("expected a non-empty report from the determinism fixture")
	}
	for i := 1; i < runs; i++ {
		if out[i] != out[0] {
			t.Fatalf("run %d output differs:\n%s\nvs:\n%s", i, out[i], out[0])
		}
	}
	assertSorted(t, run(m, pkgs, fp, nil).Findings)
}

// TestRepoIsVetClean checks the result cmd/tlbvet prints: the default
// CheckModuleOnly run has no findings and exactly the two config-seeded
// witnesses, lockset's in the Flusher and fabproof's in the fabric.
func TestRepoIsVetClean(t *testing.T) {
	res := CheckModuleOnly(sharedModule(t), nil)
	if len(res.Findings) != 0 {
		t.Fatalf("repository should be vet-clean, got %d finding(s):\n%v", len(res.Findings), res.Findings)
	}
	want := map[string]string{
		"lockset":  "internal/core/flusher.go",
		"fabproof": "internal/smp/fabric.go",
	}
	if len(res.Witnesses) != len(want) {
		t.Fatalf("witnesses = %v, want exactly one lockset and one fabproof", res.Witnesses)
	}
	for _, w := range res.Witnesses {
		if file, ok := want[w.Analyzer]; !ok || !strings.Contains(w.File, file) {
			t.Fatalf("unexpected witness %v, want %v", w, want)
		}
		delete(want, w.Analyzer)
	}
}

// TestRepoIsCleanUnderPortedRules runs only the analyzers that replaced the
// syntactic rules (determinism, costliteral, observerpurity, the map-order
// half of detflow, parallelsafe). The tree is clean under that partial run,
// and stalemarker is skipped because marker consumers were left out.
func TestRepoIsCleanUnderPortedRules(t *testing.T) {
	ported := []string{"determinism", "costliteral", "observerpurity", "detflow", "parallelsafe"}
	res := CheckModuleOnly(sharedModule(t), ported)
	if len(res.Findings) != 0 || len(res.Suppressions) != 0 {
		t.Fatalf("ported rules should be clean without waivers, got findings %v, suppressions %v", res.Findings, res.Suppressions)
	}
	if len(res.Timings) != len(ported) {
		t.Fatalf("analyzers run = %v, want exactly %v", res.Timings, ported)
	}
	for _, an := range ported {
		if _, ok := res.Timings[an]; !ok {
			t.Fatalf("%s did not run: %v", an, res.Timings)
		}
	}
}

func TestDeterminismAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_determinism.go")
	if got := countBy(res.Findings, "determinism"); got != 2 {
		t.Fatalf("determinism findings = %d, want 2 (time + math/rand): %v", got, res.Findings)
	}
}

// TestDeterminismCatchesDisguisedImports: aliased, dot and blank imports of
// banned packages all fire, because the analyzer keys on the import path,
// not the name the file binds.
func TestDeterminismCatchesDisguisedImports(t *testing.T) {
	res := checkFixture(t, "bad_determinism_alias.go")
	if got := countBy(res.Findings, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (aliased, blank, dot): %v", got, res.Findings)
	}
}

// TestDeterminismNamesDisguisedImportForms: each disguised import is
// reported under the form that disguised it.
func TestDeterminismNamesDisguisedImportForms(t *testing.T) {
	res := checkFixture(t, "bad_determinism_alias.go")
	all := fmt.Sprint(res.Findings)
	for _, form := range []string{"aliased import", "blank import", "dot-import"} {
		if !strings.Contains(all, form) {
			t.Fatalf("missing %q finding in %v", form, res.Findings)
		}
	}
}

func TestCostLiteralAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_costliteral.go")
	if got := countBy(res.Findings, "costliteral"); got != 1 || len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1 costliteral", res.Findings)
	}
	if res.Findings[0].Line != 8 {
		t.Fatalf("finding at line %d, want 8: %v", res.Findings[0].Line, res.Findings[0])
	}
}

func TestCostConstFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_costconst.go")
	if got := countBy(res.Findings, "costliteral"); got != 2 {
		t.Fatalf("costliteral findings = %d, want exactly 2 (direct + wrapper): %v", got, res.Findings)
	}
}

// TestCostLiteralScopedToMachineModel: only the machine-model packages
// (and fixtures) must route every cost through the cost model; workload
// scripts and cmd tools may use scenario-level literals.
func TestCostLiteralScopedToMachineModel(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/kernel/cpu.go":                     true,
		"internal/smp/fabric.go":                     true,
		"internal/sanitizer/ssa/testdata/fixture.go": true,
		"internal/workload/micro.go":                 false,
		"cmd/tlbfuzz/main.go":                        false,
	} {
		if got := inCostScope(rel); got != want {
			t.Errorf("inCostScope(%q) = %v, want %v", rel, got, want)
		}
	}
}

func TestMapOrderAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_maporder.go")
	if got := countBy(res.Findings, "detflow"); got != 3 || len(res.Findings) != 3 {
		t.Fatalf("findings = %v, want exactly 3 detflow (ranged value, ranged key, constant cost)", res.Findings)
	}
	if !strings.Contains(fmt.Sprint(res.Findings), "Delay inside iteration over a map") {
		t.Fatalf("the constant-cost Delay should be flagged by the map-range rule: %v", res.Findings)
	}
}

func TestObserverPurityAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_observerpurity.go")
	if got := countBy(res.Findings, "observerpurity"); got != 4 {
		t.Fatalf("observerpurity findings = %d, want 4 (2 param writes, 1 global, 1 boot hook): %v", got, res.Findings)
	}
	if !strings.Contains(fmt.Sprint(res.Findings), `package-level variable "globalCount"`) {
		t.Fatalf("the package-level write should be flagged: %v", res.Findings)
	}
}

func TestObserverPurityMethodCallFires(t *testing.T) {
	res := checkFixture(t, "bad_observerpurity_method.go")
	if got := countBy(res.Findings, "observerpurity"); got != 2 {
		t.Fatalf("observerpurity findings = %d, want 2 (direct write + mutating method via alias): %v", got, res.Findings)
	}
	if !strings.Contains(fmt.Sprint(res.Findings), "NoteContention") {
		t.Fatalf("the method-call finding should name NoteContention: %v", res.Findings)
	}
}

func TestParallelSafetyAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_parallelsafety.go")
	if got := countBy(res.Findings, "parallelsafe"); got != 4 || len(res.Findings) != 4 {
		t.Fatalf("findings = %v, want exactly 4 parallelsafe (flushCount, bootSeq, lastWorld, tick)", res.Findings)
	}
	if len(res.Suppressions) != 1 || !strings.Contains(res.Suppressions[0].Reason, "scheduler pool is idle") {
		t.Fatalf("suppressions = %v, want the one marker-waived hook", res.Suppressions)
	}
}

// TestParallelSafetyScopedToSimulatedPackages: the harness (cmd tools,
// internal/sched, internal/experiments) may hold package-level state —
// only simulated packages are restricted.
func TestParallelSafetyScopedToSimulatedPackages(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/kernel/":      true,
		"internal/stats/":       true,
		"internal/workload/":    true,
		"internal/sched/":       false,
		"internal/experiments/": false,
		"cmd/tlbsim/":           false,
	} {
		if got := inParallelScope(rel); got != want {
			t.Errorf("inParallelScope(%q) = %v, want %v", rel, got, want)
		}
	}
}

// TestLocksetAdjacencyFires pins checkAdjacency, the guard that every
// access to a race-instrumented field goes through a unit the detector
// sees: a copy of the tree with one extra non-accessor read of
// kernel.CPU.lazy must yield exactly one finding, and the tree as it is
// none.
func TestLocksetAdjacencyFires(t *testing.T) {
	m := sharedModule(t)
	if fs := CheckModuleOnly(m, []string{"lockset"}).Findings; len(fs) != 0 {
		t.Fatalf("unmodified tree should be lockset-clean, got %v", fs)
	}
	tmp := t.TempDir()
	copyFile := func(rel string, extra string) {
		src, err := os.ReadFile(filepath.Join(m.Root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(tmp, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, append(src, extra...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod", "")
	for _, p := range m.Pkgs {
		for _, rel := range p.FileNames {
			extra := ""
			if rel == "internal/kernel/cpu.go" {
				extra = "\nfunc (c *CPU) peekLazy() bool { return c.lazy }\n"
			}
			copyFile(rel, extra)
		}
	}
	mod, err := LoadModuleAt(tmp)
	if err != nil {
		t.Fatal(err)
	}
	fs := CheckModuleOnly(mod, []string{"lockset"}).Findings
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, `unprotected access to "cpu.lazy"`) {
		t.Fatalf("findings = %v, want exactly one unprotected access to \"cpu.lazy\"", fs)
	}
}
