package ssa

import (
	"bytes"
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

// The whole-module run is as read-only as the module it reads, so the
// tests that inspect the clean tree share one result.
var (
	resOnce sync.Once
	modRes  *Result
)

func sharedResult(t *testing.T) *Result {
	t.Helper()
	m := sharedModule(t)
	resOnce.Do(func() { modRes = CheckModuleOnly(m, nil) })
	return modRes
}

// checkFixture runs the named analyzers (every analyzer when none are
// named) over one testdata fixture. A test that reads one analyzer's
// findings runs only that analyzer; one that asserts a total across
// analyzers runs them all.
func checkFixture(t *testing.T, name string, analyzers ...string) *Result {
	t.Helper()
	res, err := CheckFixture(sharedModule(t), filepath.Join("testdata", name), analyzers)
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
}

func TestLockOrderFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_lockorder.go", "lockorder")
	if got := countBy(res.Findings, "lockorder"); got != 1 {
		t.Fatalf("lockorder findings = %d, want exactly 1: %v", got, res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "cycle") || !strings.Contains(f.Msg, "twoLocks.a") || !strings.Contains(f.Msg, "twoLocks.b") {
		t.Fatalf("cycle finding should name both lock classes: %v", f)
	}
}

// TestShootLifecycleTypeErrors: the shootdown request lifecycle is kept
// by the compiler, not by an analyzer. Outside smp nothing can kick
// without waiting, and outside kernel nothing can wait on requests it
// did not kick, because the two halves of smp.Layer.Shoot are
// unexported. Each fixture must fail to type-check on exactly that.
func TestShootLifecycleTypeErrors(t *testing.T) {
	for _, tc := range []struct{ name, fixture, want string }{
		{"kick", "bad_shoot_kick.go", "unexported method callMany"},
		{"wait", "bad_shoot_wait.go", "unexported method waitRequests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sharedModule(t).LoadFixture(filepath.Join("testdata", tc.fixture))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadFixture(%s) = %v, want a type error naming the %s", tc.fixture, err, tc.want)
			}
		})
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

// TestDetFlowWaitPollPeriodFires: WaitPoll's period times every re-arm,
// so a wall-clock period is an event timestamp like WaitTimeout's.
func TestDetFlowWaitPollPeriodFires(t *testing.T) {
	res := checkFixture(t, "bad_detflow_waitpoll.go", "detflow")
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1 detflow finding", res.Findings)
	}
	if f := res.Findings[0]; !strings.Contains(f.Msg, "event timestamp in WaitPoll") || !strings.Contains(f.Msg, "wall clock") {
		t.Fatalf("finding should name the WaitPoll sink and the clock source: %v", f)
	}
}

// TestDetFlowDelayEachFires: a DelayEach in a map range times its steps
// in map order, so it is an event-timestamp sink like Delay.
func TestDetFlowDelayEachFires(t *testing.T) {
	res := checkFixture(t, "bad_detflow_delayeach.go", "detflow")
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1 detflow finding", res.Findings)
	}
	if f := res.Findings[0]; f.Line != 10 || !strings.Contains(f.Msg, "DelayEach") {
		t.Fatalf("finding should name the DelayEach sink at line 10: %v", f)
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
	if got := countBy(res.Findings, "lockset"); got != 3 {
		t.Fatalf("lockset findings = %d, want exactly 3: %v", got, res.Findings)
	}
	if len(res.Findings) != 3 {
		t.Fatalf("total findings = %d, want 3: %v", len(res.Findings), res.Findings)
	}
	// A comparison with another mutant does not mark the seeded site.
	if len(res.Witnesses) != 0 {
		t.Fatalf("witnesses = %v, want none", res.Witnesses)
	}
	// Sorted by line: the two early acks come before scratchProbe.
	for _, f := range res.Findings[:2] {
		if !strings.Contains(f.Msg, "mm.pt-nodes") || !strings.Contains(f.Msg, "FreedTables") {
			t.Fatalf("finding should name the ack-ordered entry and its guard: %v", f)
		}
	}
	if f := res.Findings[2]; !strings.Contains(f.Msg, "not in the race registry") || !strings.Contains(f.Msg, "WriteVar") {
		t.Fatalf("finding should name the unregistered access: %v", f)
	}
}

// TestLocksetConfinedFires: a cpu-confined site whose unit does not call
// the owner check first is exactly one lockset finding.
func TestLocksetConfinedFires(t *testing.T) {
	res := checkFixture(t, "bad_lockset_confined.go")
	if len(res.Findings) != 1 || countBy(res.Findings, "lockset") != 1 {
		t.Fatalf("findings = %v, want exactly 1 lockset finding", res.Findings)
	}
	if f := res.Findings[0]; f.Line != 16 || !strings.Contains(f.Msg, `unprotected access to "cpu.tlbgen"`) || !strings.Contains(f.Msg, "checkOwner") {
		t.Fatalf("finding should name cpu.tlbgen and the owner check at the ReadVar (line 16): %v", f)
	}
}

func TestLocksetGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_lockset.go")
	if len(res.Findings) != 0 {
		t.Fatalf("guarded fixture should be clean, got %v", res.Findings)
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

// TestMHPSpinFixturesFire: a quiet poll parks the proc like any other
// wait, so kernel.CPU.SpinUntil and sim.Cond.WaitPoll inside an IPI
// handler are exactly one finding each.
func TestMHPSpinFixturesFire(t *testing.T) {
	for fixture, name := range map[string]string{
		"bad_mhp_spin.go":     "kernel.CPU.SpinUntil",
		"bad_mhp_waitpoll.go": "sim.Cond.WaitPoll",
	} {
		res := checkFixture(t, fixture)
		if len(res.Findings) != 1 || countBy(res.Findings, "mhp") != 1 {
			t.Fatalf("%s: findings = %v, want exactly 1 mhp finding", fixture, res.Findings)
		}
		if f := res.Findings[0]; !strings.Contains(f.Msg, "blocking call "+name+" in IPI-handler context") {
			t.Fatalf("%s: finding should name %s and the context: %v", fixture, name, f)
		}
	}
}

// TestMHPNestedShootFires: a handler that starts its own shootdown parks
// in the ack wait Shoot ends in, so the Shoot call is the one finding.
func TestMHPNestedShootFires(t *testing.T) {
	res := checkFixture(t, "bad_mhp_shoot.go")
	if len(res.Findings) != 1 || countBy(res.Findings, "mhp") != 1 {
		t.Fatalf("findings = %v, want exactly 1 mhp finding", res.Findings)
	}
	if f := res.Findings[0]; f.Line != 18 || !strings.Contains(f.Msg, "blocking call smp.Layer.Shoot in IPI-handler context") {
		t.Fatalf("finding should name smp.Layer.Shoot at the nested kick (line 18): %v", f)
	}
}

// TestLocksetBrokenEarlyAckWitness is the cross-validation contract: on
// the clean module the lockset prover must rediscover the seeded
// fault.MutantEarlyAck violation — as exactly one witness, on the same
// field the dynamic race model blames (mm.pt-nodes), at the forced
// early-ack assignment in core's Flusher — while producing zero findings.
func TestLocksetBrokenEarlyAckWitness(t *testing.T) {
	res := sharedResult(t)
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
		t.Fatalf("lockset witnesses = %d, want exactly 1 (the seeded MutantEarlyAck site): %v", len(lockWits), res.Witnesses)
	}
	w := lockWits[0]
	if !strings.Contains(w.File, "internal/core/flusher.go") {
		t.Fatalf("witness should sit in the Flusher: %v", w)
	}
	for _, want := range []string{"mm.pt-nodes", "MutantEarlyAck", "FreedTables"} {
		if !strings.Contains(w.Msg, want) {
			t.Fatalf("witness message should mention %q: %v", want, w)
		}
	}
}

// TestXValAllProven asserts every race-registry entry is statically
// discharged on the clean tree — the rows CI publishes as RACE_XVAL.txt.
func TestXValAllProven(t *testing.T) {
	res := sharedResult(t)
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

// TestWaiverCommentsChangeNothing pins that every finding is
// unconditional. Each bad fixture is copied with a comment in the
// vocabulary its analyzer once read as a waiver, placed where the waiver
// sat: on the line above every finding and above every top-level var
// (parallel-safe waived a var through its doc comment). The copy must
// report exactly the findings of the original, moved down by the
// inserted lines.
func TestWaiverCommentsChangeNothing(t *testing.T) {
	for _, tc := range []struct{ marker, fixture string }{
		{"obligation-transferred:", "bad_flushobligation.go"},
		{"lock-free-by-design:", "bad_lockset.go"},
		{"parallel-safe:", "bad_parallelsafety.go"},
	} {
		t.Run(strings.TrimSuffix(tc.marker, ":"), func(t *testing.T) {
			want := checkFixture(t, tc.fixture).Findings
			if len(want) == 0 {
				t.Fatalf("%s reports no finding to waive", tc.fixture)
			}
			flagged := make(map[int]bool)
			for _, f := range want {
				flagged[f.Line] = true
			}
			src, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			moved := make(map[int]int) // original line -> line in the copy
			for i, l := range strings.Split(string(src), "\n") {
				if flagged[i+1] || strings.HasPrefix(l, "var ") {
					out = append(out, "// "+tc.marker+" a comment that must not waive anything.")
				}
				out = append(out, l)
				moved[i+1] = len(out)
			}
			// The copy keeps a testdata path, so the analyzers still
			// scope it as a fixture.
			dir := filepath.Join(t.TempDir(), "sanitizer", "ssa", "testdata")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.fixture)
			if err := os.WriteFile(path, []byte(strings.Join(out, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := CheckFixture(sharedModule(t), path, nil)
			if err != nil {
				t.Fatalf("CheckFixture(%s): %v", path, err)
			}
			if len(res.Findings) != len(want) {
				t.Fatalf("findings with %q comments = %v, want the unmarked fixture's %v", tc.marker, res.Findings, want)
			}
			for i, w := range want {
				g := res.Findings[i]
				if g.Analyzer != w.Analyzer || g.Msg != w.Msg || g.Line != moved[w.Line] {
					t.Errorf("finding %d = line %d %s: %s, want line %d %s: %s", i, g.Line, g.Analyzer, g.Msg, moved[w.Line], w.Analyzer, w.Msg)
				}
			}
		})
	}
}

// TestWholeProgramCoverageFloor asserts every analyzer that reads the
// SSA program (all but determinism, which reads import specs) visited
// every function declaration the loader found — a silently narrowed walk
// (a lost package, an early bail) cannot pass as "clean".
func TestWholeProgramCoverageFloor(t *testing.T) {
	m := sharedModule(t)
	floor := len(allFuncs(m.Pkgs))
	if floor == 0 {
		t.Fatal("the module lists 0 functions — the floor itself is broken")
	}
	res := sharedResult(t)
	for _, an := range Analyzers() {
		if an == "determinism" {
			continue
		}
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
	return b.String()
}

// TestVetOutputParallelGolden is the golden scheduling test: concurrent
// runs over one shared loaded module (the analyses are read-only over the
// typechecked data) fanned out on the sched pool produce byte-identical
// reports at 1 worker and 8 workers, sorted by file, line and analyzer.
func TestVetOutputParallelGolden(t *testing.T) {
	m := sharedModule(t)
	pkgs := append([]*Package{}, m.Pkgs...)
	for _, name := range []string{"bad_lockorder.go", "bad_detflow.go", "bad_flushobligation.go", "bad_determinism_alias.go"} {
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

// TestRepoIsVetClean checks the result cmd/tlbvet prints: the run of
// every analyzer (CheckModuleOnly with no names) has no findings and
// exactly one config-seeded witness, lockset's in the Flusher. No
// comment can waive a finding, so every discipline is proven.
func TestRepoIsVetClean(t *testing.T) {
	res := sharedResult(t)
	if len(res.Findings) != 0 {
		t.Fatalf("repository should be vet-clean, got %d finding(s):\n%v", len(res.Findings), res.Findings)
	}
	if len(res.Witnesses) != 1 {
		t.Fatalf("witnesses = %v, want exactly one, lockset's", res.Witnesses)
	}
	if w := res.Witnesses[0]; w.Analyzer != "lockset" || !strings.Contains(w.File, "internal/core/flusher.go") {
		t.Fatalf("unexpected witness %v, want lockset's in internal/core/flusher.go", w)
	}
}

// TestRepoIsCleanUnderPortedRules runs only the analyzers that replaced the
// syntactic rules (determinism, costliteral, observerpurity, the map-order
// half of detflow, parallelsafe). The tree is clean under that partial
// run, and no other analyzer runs.
func TestRepoIsCleanUnderPortedRules(t *testing.T) {
	ported := []string{"determinism", "costliteral", "observerpurity", "detflow", "parallelsafe"}
	res := CheckModuleOnly(sharedModule(t), ported)
	if len(res.Findings) != 0 {
		t.Fatalf("ported rules should be clean, got %v", res.Findings)
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
	res := checkFixture(t, "bad_determinism.go", "determinism")
	if got := countBy(res.Findings, "determinism"); got != 2 {
		t.Fatalf("determinism findings = %d, want 2 (time + math/rand): %v", got, res.Findings)
	}
}

// TestDeterminismCatchesDisguisedImports: aliased, dot and blank imports of
// banned packages all fire, because the analyzer keys on the import path,
// not the name the file binds.
func TestDeterminismCatchesDisguisedImports(t *testing.T) {
	res := checkFixture(t, "bad_determinism_alias.go", "determinism")
	if got := countBy(res.Findings, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (aliased, blank, dot): %v", got, res.Findings)
	}
}

// TestDeterminismNamesDisguisedImportForms: each disguised import is
// reported under the form that disguised it.
func TestDeterminismNamesDisguisedImportForms(t *testing.T) {
	res := checkFixture(t, "bad_determinism_alias.go", "determinism")
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
	res := checkFixture(t, "bad_costconst.go", "costliteral")
	if got := countBy(res.Findings, "costliteral"); got != 2 {
		t.Fatalf("costliteral findings = %d, want exactly 2 (direct + wrapper): %v", got, res.Findings)
	}
}

// TestCostLiteralDelayEach: DelayEach's per-step cost is a sink like
// Delay's, and so reaches through wrappers: a literal passed to
// DelayEach, and one passed to a FlushPages-style wrapper whose cost
// reaches DelayEach through a second wrapper, are one finding each.
func TestCostLiteralDelayEach(t *testing.T) {
	const model = "; route it through the cost model (internal/mach/costs.go)"
	assertRuleFindings(t, "bad_costliteral_each.go", "costliteral", []ruleFinding{
		{9, "constant cycle cost 220 passed to DelayEach" + model},
	})
	assertRuleFindings(t, "bad_costliteral_flushwrapper.go", "costliteral", []ruleFinding{
		{21, "constant cycle cost 150 passed to cost parameter 4 of FlushPages" + model},
	})
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
	res := checkFixture(t, "bad_observerpurity.go", "observerpurity")
	if got := countBy(res.Findings, "observerpurity"); got != 4 {
		t.Fatalf("observerpurity findings = %d, want 4 (2 param writes, 1 global, 1 boot hook): %v", got, res.Findings)
	}
	if !strings.Contains(fmt.Sprint(res.Findings), `package-level variable "globalCount"`) {
		t.Fatalf("the package-level write should be flagged: %v", res.Findings)
	}
}

func TestObserverPurityMethodCallFires(t *testing.T) {
	res := checkFixture(t, "bad_observerpurity_method.go", "observerpurity")
	if got := countBy(res.Findings, "observerpurity"); got != 2 {
		t.Fatalf("observerpurity findings = %d, want 2 (direct write + mutating method via alias): %v", got, res.Findings)
	}
	if !strings.Contains(fmt.Sprint(res.Findings), "NoteContention") {
		t.Fatalf("the method-call finding should name NoteContention: %v", res.Findings)
	}
}

func TestParallelSafetyAnalyzerFires(t *testing.T) {
	res := checkFixture(t, "bad_parallelsafety.go")
	if got := countBy(res.Findings, "parallelsafe"); got != 5 || len(res.Findings) != 5 {
		t.Fatalf("findings = %v, want exactly 5 parallelsafe (hook, flushCount, bootSeq, lastWorld, tick)", res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, `"hook"`) {
		t.Fatalf("first finding should be setHook's store to hook: %v", res.Findings[0])
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
	mod := copyModule(t, m, "internal/kernel/cpu.go", func(src []byte) []byte {
		return append(src, "\nfunc (c *CPU) peekLazy() bool { return c.lazy }\n"...)
	})
	fs := CheckModuleOnly(mod, []string{"lockset"}).Findings
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, `unprotected access to "cpu.lazy"`) {
		t.Fatalf("findings = %v, want exactly one unprotected access to \"cpu.lazy\"", fs)
	}
}

// TestLocksetOwnerCheckFires pins checkConfined on copies of the tree: a
// renamed owner check is exactly one finding (lockset binds it by its
// declared name), and so is an access to another CPU's generation from a
// unit that checks only its receiver.
func TestLocksetOwnerCheckFires(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(src []byte) []byte
		want string
	}{
		{"renamed", func(src []byte) []byte {
			return bytes.ReplaceAll(src, []byte(ownerCheck), []byte("assertOwner"))
		}, "owner check kernel.CPU.checkOwner does not resolve"},
		{"other-cpu", func(src []byte) []byte {
			return append(src, `
func (c *CPU) peerGen(o *CPU, as *mm.AddressSpace) uint64 {
	c.checkOwner()
	c.K.Race.ReadVar(o.genVar)
	return o.localGen[as.ID]
}
`...)
		}, `unprotected access to "cpu.tlbgen": the unit does not call checkOwner first on the CPU it accesses`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := copyModule(t, sharedModule(t), "internal/kernel/cpu.go", tc.edit)
			fs := CheckModuleOnly(mod, []string{"lockset"}).Findings
			if len(fs) != 1 || !strings.Contains(fs[0].Msg, tc.want) {
				t.Fatalf("findings = %v, want exactly one: %s", fs, tc.want)
			}
		})
	}
}

// copyModule loads a copy of m's tree in which the file rel is edited.
func copyModule(t *testing.T, m *Module, rel string, edit func(src []byte) []byte) *Module {
	t.Helper()
	tmp := t.TempDir()
	copyFile := func(name string) {
		src, err := os.ReadFile(filepath.Join(m.Root, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		if name == rel {
			src = edit(src)
		}
		dst := filepath.Join(tmp, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	for _, p := range m.Pkgs {
		for _, name := range p.FileNames {
			copyFile(name)
		}
	}
	mod, err := LoadModuleAt(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// ruleFinding is one expected finding of a rule fixture.
type ruleFinding struct {
	line int
	msg  string
}

// assertRuleFindings runs one analyzer over a rule fixture and checks its
// findings, in report order, by file, line and message.
func assertRuleFindings(t *testing.T, fixture, analyzer string, want []ruleFinding) {
	t.Helper()
	res := checkFixture(t, fixture, analyzer)
	file := "internal/sanitizer/ssa/testdata/" + fixture
	if len(res.Findings) != len(want) {
		t.Fatalf("%s findings = %d, want %d:\n%v", analyzer, len(res.Findings), len(want), res.Findings)
	}
	for i, w := range want {
		g := res.Findings[i]
		if g.File != file || g.Line != w.line || g.Analyzer != analyzer || g.Msg != w.msg {
			t.Errorf("finding %d = %v, want %s:%d: %s: %s", i, g, file, w.line, analyzer, w.msg)
		}
	}
}

// TestFlushObligationRules pins every release, discharge and transfer
// rule: the error edge, fr.Empty()'s true edge, a panic, a range over the
// slice, a deferred discharge, a return and a discharging wrapper are
// clean; an element dropped by the next iteration, a wrapper that leaks
// on one path, a leaking literal unit, a result assigned to _ and a bare
// statement call are findings.
func TestFlushObligationRules(t *testing.T) {
	const leak = " exit undischarged: some path performs a restrictive page-table mutation without a TLB shootdown (pass the FlushRange to the Flusher or return it)"
	const discarded = "flush obligation from as.Unmap is discarded; pass it to the Flusher or return it"
	assertRuleFindings(t, "rules_flushobligation.go", "flushobligation", []ruleFinding{
		{50, "flush obligation from as.DedupPages may be dropped by the next loop iteration"},
		{105, "flush obligation from as.Unmap may reach viaLeakyWrapper's" + leak},
		{116, "flush obligation from as.Unmap may reach the function literal in leakInLiteral's" + leak},
		{125, discarded},
		{130, discarded},
	})
}

// TestLockOrderRules pins lock classing and the edge-sensitive rules: a
// lock held across the body by a deferred release, an interface call, a
// lock parameter, an accessor and a literal unit each close a cycle; a
// TryDown failure edge and a caller of the deferring function hold
// nothing.
func TestLockOrderRules(t *testing.T) {
	cycle := func(a, b string) string {
		return "lock-acquisition-order cycle: lockrules." + a + " -> lockrules." + b + " -> lockrules." + a +
			": two tasks taking these locks in opposite orders can deadlock; pick one global order"
	}
	assertRuleFindings(t, "rules_lockorder.go", "lockorder", []ruleFinding{
		{39, cycle("deferLocks.a", "deferLocks.b")},
		{84, cycle("ifaceLocks.x", "ifaceLocks.y")},
		{95, cycle("paramLocks.m", "paramLocks.n")},
		{118, cycle("accLocks.U", "accLocks.v")},
		{137, cycle("litLocks.q", "litLocks.r")},
	})
}

// TestFlushObligationBranchFires: a block first reached with nothing live
// still runs, so an obligation born inside an if body is tracked.
func TestFlushObligationBranchFires(t *testing.T) {
	assertRuleFindings(t, "bad_flushobligation_branch.go", "flushobligation", []ruleFinding{
		{14, "flush obligation from as.Protect may reach protectSome's exit undischarged: some path performs a restrictive page-table mutation without a TLB shootdown (pass the FlushRange to the Flusher or return it)"},
	})
}

// TestLockOrderBranchFires: blocks first reached with nothing held still
// run, so acquisitions inside an if body and a loop body are ordered.
func TestLockOrderBranchFires(t *testing.T) {
	assertRuleFindings(t, "bad_lockorder_branch.go", "lockorder", []ruleFinding{
		{17, "lock-acquisition-order cycle: lockbranch.pair.a -> lockbranch.pair.b -> lockbranch.pair.a: two tasks taking these locks in opposite orders can deadlock; pick one global order"},
	})
}

// TestLockOrderRoundCapReported: lockorder's summary rounds are not
// monotone, so they stop at a cap, and a run still changing there is a
// finding rather than a partial result passed off as clean.
func TestLockOrderRoundCapReported(t *testing.T) {
	assertRuleFindings(t, "bad_lockorder_deep.go", "lockorder", []ruleFinding{
		{15, "lock summaries did not stabilize within 50 rounds (lockdeep.l2 still changing), so the acquisition orders are unproven"},
	})
}

// TestObserverPurityRules pins the hook rules: a write through a local
// alias of the parameter, a mutating method reached through an interface,
// ++ on a package-level var, a write in a boot hook, a write to an element
// of a by-value parameter's slice field, a call of a value method that
// writes through a pointer its receiver holds and a call of a method that
// mutates through an interface-typed field are findings; a boot hook
// calling a mutating method, a hook rebinding its parameter or bumping a
// local copy of a field, a write to a by-value parameter's own field, a
// call of a value method that writes only its receiver copy and a pointer
// method called on a field of a by-value parameter are clean.
func TestObserverPurityRules(t *testing.T) {
	const pure = "; observers must be purely observational"
	assertRuleFindings(t, "rules_observerpurity.go", "observerpurity", []ruleFinding{
		{22, `hook mutates observed state "alias" (write through hook parameter)` + pure},
		{25, `hook mutates observed state "c" via call to mutating method bump` + pure},
		{28, `hook mutates package-level variable "hits"` + pure},
		{34, `hook mutates observed state "s" (write through hook parameter)` + pure},
		{59, `hook mutates observed state "e" (write through hook parameter)` + pure},
		{93, `hook mutates observed state "p" via call to mutating method set` + pure},
		{108, `hook mutates observed state "v" via call to mutating method poke` + pure},
	})
}

// TestObserverPurityMethodValue: a method value passed to Hook.Add is
// checked like a literal, its non-receiver parameters the observed state.
func TestObserverPurityMethodValue(t *testing.T) {
	assertRuleFindings(t, "bad_observerpurity_methodvalue.go", "observerpurity", []ruleFinding{
		{13, `hook mutates observed state "c" (write through hook parameter); observers must be purely observational`},
	})
}

// TestObserverPurityRaceModel: a hook whose call reaches a recording
// race.Detector method is a finding, whatever state the call starts from.
func TestObserverPurityRaceModel(t *testing.T) {
	assertRuleFindings(t, "bad_observerpurity_race.go", "observerpurity", []ruleFinding{
		{15, "hook mutates race-model state via call to Lazy, which reaches Detector.AtomicLoad; observers must be purely observational"},
	})
}

// TestCostLiteralRules pins the cost rules: a literal inside a func
// literal, a converted named constant, a constant through a wrapper of a
// wrapper, through a literal that forwards its enclosing parameter and
// through wrappers that read the parameter in a loop or after a join, and
// a converted literal are findings; zero costs and a constant-initialized
// local are not.
func TestCostLiteralRules(t *testing.T) {
	const model = "; route it through the cost model (internal/mach/costs.go)"
	assertRuleFindings(t, "rules_costliteral.go", "costliteral", []ruleFinding{
		{11, "constant cycle cost 300 passed to Delay" + model},
		{16, "named-constant cycle cost 120 passed to Delay" + model},
		{24, "constant cycle cost 40 passed to cost parameter 1 of delayOuter" + model},
		{34, "constant cycle cost 7 passed to cost parameter 1 of delayLater" + model},
		{59, "constant cycle cost 500 passed to cost parameter 2 of delayEach" + model},
		{60, "constant cycle cost 600 passed to cost parameter 1 of delayCapped" + model},
		{66, "named-constant cycle cost 300 passed to Delay" + model},
	})
}

// TestDetFlowDeepChainFires: the summary fixpoint runs until nothing
// changes, so a source 13 wrappers below the digest still reaches it.
func TestDetFlowDeepChainFires(t *testing.T) {
	assertRuleFindings(t, "bad_detflow_deep.go", "detflow", []ruleFinding{
		{16, "nondeterministic value (wall clock (time.Now)) flows into StateDigest — digest inputs must be replay-stable (sort map-derived data, use sim time)"},
	})
}

// TestDetFlowCycleTerminates: summaries keep their first label, so three
// mutually recursive sources do not relabel each other forever; the
// fixpoint stops and the digest is reported once.
func TestDetFlowCycleTerminates(t *testing.T) {
	assertRuleFindings(t, "bad_detflow_cycle.go", "detflow", []ruleFinding{
		{19, "nondeterministic value (wall clock (time.Now)) flows into StateDigest — digest inputs must be replay-stable (sort map-derived data, use sim time)"},
	})
}
