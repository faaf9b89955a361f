// Command tlbvet is the repository's static-analysis front door: it loads
// and typechecks the module once (stdlib go/types only) and runs every
// analyzer of internal/sanitizer/ssa over it — a def-use/SSA IR with
// interprocedural summaries over a fixpoint call graph:
//
//   - determinism: banned imports (time, math/rand) by path, catching
//     aliased/dot/blank forms
//   - costliteral: constant cycle costs (literals, named constants and
//     thin Delay wrappers) outside the cost model
//   - observerpurity: hooks mutating observed or package-level state,
//     including through mutating method calls and local aliases
//   - flushobligation: every restrictive page-table mutation's returned
//     mm.FlushRange must reach a shootdown discharge on every path, be
//     returned to the caller, or carry an "obligation-transferred:" marker
//   - lockorder: static lockdep — acquisition-order cycles between
//     mm.RWSem lock classes anywhere in the call graph
//   - ipistate: typestate DFA for the shootdown request lifecycle
//     (new → kicked → waited → acked/timeout-recovery → discharged,
//     with deferred-discharge and enqueue-transfer edges)
//   - detflow: nondeterminism-taint — time.Now, math/rand, map-range
//     order and select arms must never reach simulated state, digests,
//     stats or event timestamps, and no time is charged inside a map range
//   - parallelsafe: whole-program restore-discipline proof for
//     package-level vars in simulated packages
//   - mhp: may-happen-in-parallel contexts over every spawn edge
//     (Engine.Go procs, Task bodies, IPI handlers, deferred-flush
//     closures, sched pool fan-out); blocking calls in IPI-handler
//     context are findings
//   - lockset: RacerD-style discharge proofs for every field the dynamic
//     race model instruments (internal/race.Registry): atomic hooks,
//     CPU confinement, ack ordering, single-writer epochs. The seeded
//     BrokenEarlyAck violation must surface as exactly one witness; the
//     per-entry statuses are the RACE_XVAL cross-validation artifact
//   - fabproof: numeric abstract-interpretation proofs for the async
//     shootdown fabric — ring bounds, overflow collapse, sequence and
//     generation monotonicity, retry caps, coalescing soundness (the
//     seeded BrokenCoalesceShrink coverage loss must surface as exactly
//     one witness), callback-once and ring-entry well-formedness. The
//     per-obligation statuses are the FABPROOF artifact
//   - stalemarker: suppression markers nothing consumed are findings
//
// Output is sorted by file, line and analyzer, so it is byte-identical
// from run to run; per-analyzer wall-clock timings appear only in a
// footer after the deterministic report (and as timings_ms in -json).
// Exit status: 0 clean, 1 findings, 2 on a load/typecheck error.
//
// Usage:
//
//	tlbvet                  # vet the enclosing module
//	tlbvet -json            # machine-readable report (CI artifact)
//	tlbvet -suppressions    # also list documented suppressions
//	tlbvet -xval FILE       # write the race cross-validation table
//	tlbvet -fabproof FILE   # write the fabric obligation proof table
//	tlbvet -only a,b        # run only the named analyzers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"shootdown/internal/sanitizer/ssa"
)

// report is the -json shape; field names are part of the CI contract
// (ci.sh publishes it as VET_findings.json).
type report struct {
	Findings     []ssa.Finding     `json:"findings"`
	Suppressions []ssa.Suppression `json:"suppressions"`
	// Witnesses are expected rediscoveries of config-seeded faults (the
	// lockset and fabproof cross-validation).
	Witnesses []ssa.Finding `json:"witnesses"`
	// XVal is the race cross-validation table: one row per registry
	// entry with its static discharge status.
	XVal []ssa.XValRow `json:"xval"`
	// FabRows is the fabric obligation proof table: one row per fabproof
	// obligation with its status (proven / waived / unproven).
	FabRows []ssa.FabRow `json:"fabproof"`
	// FuncsVisited records per-analyzer whole-program coverage, so
	// dashboards can spot a silently narrowed walk.
	FuncsVisited map[string]int `json:"funcs_visited"`
	// TimingsMS is per-analyzer wall-clock milliseconds. Diagnostics
	// only: never part of the sorted report sections.
	TimingsMS map[string]float64 `json:"timings_ms"`
}

func main() {
	var (
		sups    = flag.Bool("suppressions", false, "list documented suppressions after findings")
		jsonOut = flag.Bool("json", false, "emit the report as JSON on stdout")
		xvalOut = flag.String("xval", "", "write the race cross-validation table (RACE_XVAL) to this file")
		fabOut  = flag.String("fabproof", "", "write the fabric obligation proof table (FABPROOF) to this file")
		only    = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	flag.Parse()

	names, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
		os.Exit(2)
	}
	m, err := ssa.LoadModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
		os.Exit(2)
	}
	r := ssa.CheckModuleOnly(m, names)
	// Empty sections encode as [] rather than null in -json.
	rep := report{
		Findings:     append([]ssa.Finding{}, r.Findings...),
		Suppressions: append([]ssa.Suppression{}, r.Suppressions...),
		Witnesses:    append([]ssa.Finding{}, r.Witnesses...),
		XVal:         r.XVal,
		FabRows:      r.FabRows,
		FuncsVisited: r.FuncsVisited,
		TimingsMS:    r.Timings,
	}

	if *xvalOut != "" {
		if err := os.WriteFile(*xvalOut, []byte(renderXVal(rep)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
	}
	if *fabOut != "" {
		if err := os.WriteFile(*fabOut, []byte(renderFabproof(rep)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
		if len(rep.Findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range rep.Findings {
		fmt.Println(f)
	}
	for _, w := range rep.Witnesses {
		fmt.Printf("%s:%d: %s: witness: %s\n", w.File, w.Line, w.Analyzer, w.Msg)
	}
	if *sups {
		for _, s := range rep.Suppressions {
			fmt.Printf("%s:%d: %s: suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
		}
	}
	printTimings(rep.TimingsMS)
	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "tlbvet: %d finding(s)\n", len(rep.Findings))
		os.Exit(1)
	}
	fmt.Println("tlbvet: clean")
}

// printTimings emits the wall-clock footer, sorted by analyzer name so
// the footer shape (though not its numbers) is stable.
func printTimings(ms map[string]float64) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	total := 0.0
	for name, v := range ms {
		names = append(names, name)
		total += v
	}
	sort.Strings(names)
	fmt.Println("--- timings (wall clock, not part of the report) ---")
	for _, name := range names {
		fmt.Printf("%-16s %8.1fms\n", name, ms[name])
	}
	fmt.Printf("%-16s %8.1fms\n", "total", total)
}

// renderXVal formats the cross-validation table published as
// RACE_XVAL.txt: one row per race-registry entry. CI fails on any
// "unproven" row — a field the dynamic model instruments that the static
// tier cannot discharge.
func renderXVal(rep report) string {
	var b strings.Builder
	b.WriteString("# RACE_XVAL: static discharge status of every dynamic-race-model instrumented field\n")
	b.WriteString("# entry | variable | discipline | status | proof\n")
	for _, r := range rep.XVal {
		v := r.Var
		if v == "" {
			v = "-"
		}
		fmt.Fprintf(&b, "%s | %s | %s | %s | %s\n", r.Key, v, r.Discipline, r.Status, r.Detail)
	}
	for _, w := range rep.Witnesses {
		fmt.Fprintf(&b, "witness | %s:%d | %s\n", w.File, w.Line, w.Msg)
	}
	return b.String()
}

// renderFabproof formats the fabric obligation table published as
// FABPROOF.txt: one row per fabproof obligation. CI fails on any
// "unproven" row — a fabric invariant the numeric tier cannot discharge
// and no bounded-by-design waiver covers.
func renderFabproof(rep report) string {
	var b strings.Builder
	b.WriteString("# FABPROOF: static proof status of every async-fabric obligation\n")
	b.WriteString("# obligation | subject | status | proof\n")
	for _, r := range rep.FabRows {
		fmt.Fprintf(&b, "%s | %s | %s | %s\n", r.Key, r.Subject, r.Status, r.Detail)
	}
	for _, w := range rep.Witnesses {
		if w.Analyzer != "fabproof" {
			continue
		}
		fmt.Fprintf(&b, "witness | %s:%d | %s\n", w.File, w.Line, w.Msg)
	}
	return b.String()
}

// parseOnly splits a comma-separated -only list, validating every name
// against the registered analyzers (nil means all of them).
func parseOnly(only string) ([]string, error) {
	known := map[string]bool{}
	for _, n := range ssa.Analyzers() {
		known[n] = true
	}
	var names []string
	for _, raw := range strings.Split(only, ",") {
		n := strings.TrimSpace(raw)
		if n == "" {
			continue
		}
		if !known[n] {
			return nil, fmt.Errorf("-only: unknown analyzer %q (known: %s)", n, strings.Join(ssa.Analyzers(), ", "))
		}
		names = append(names, n)
	}
	return names, nil
}
