// Command tlbvet is the repository's static-analysis front door: it loads
// and typechecks the module once (stdlib go/types only), lowers every
// function into one def-use/SSA IR with interprocedural summaries over a
// fixpoint call graph, and runs every analyzer of internal/sanitizer/ssa.
// determinism reads import specs; the other eight run on the shared IR,
// which records the constants, literal fields, function values and
// map-range blocks they ask about, so none re-derives those from syntax:
//
//   - determinism: banned imports (time, math/rand) by path, catching
//     aliased/dot/blank forms
//   - costliteral: constant cycle costs (literals, named constants and
//     thin Delay wrappers) outside the cost model
//   - observerpurity: hooks (func literals and method values) mutating
//     observed state (reached through a pointer, slice or map) or
//     package-level state, including through mutating method calls and
//     local aliases, or reaching a recording race.Detector method
//     through the call graph
//   - flushobligation: every restrictive page-table mutation's returned
//     mm.FlushRange must reach a shootdown discharge on every path or be
//     returned to the caller
//   - lockorder: static lockdep — acquisition-order cycles between
//     mm.RWSem lock classes anywhere in the call graph
//   - detflow: nondeterminism-taint — time.Now, math/rand, map-range
//     order and select arms must never reach simulated state, digests,
//     stats or event timestamps, and no time is charged inside a map range
//   - parallelsafe: whole-program restore-discipline proof for
//     package-level vars in simulated packages
//   - mhp: what IPI handlers reach over the call graph, its one fact;
//     blocking calls in handler reach are findings
//   - lockset: RacerD-style discharge proofs for every field the dynamic
//     race model instruments (internal/race.Registry): atomic hooks,
//     CPU confinement (every site's unit first calls kernel.CPU's owner
//     check on the CPU it accesses), ack ordering, single-writer
//     epochs. The
//     violation seeded by fault.MutantEarlyAck must surface as exactly
//     one witness, at the one unit that compares Config.Mutant with that
//     constant; the per-entry statuses and lockset's witness are the
//     RACE_XVAL cross-validation artifact
//
// Every finding is unconditional: no source comment waives one.
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
//	tlbvet -xval FILE       # write the race cross-validation table
//	tlbvet -only a,b        # run only the named analyzers
//
// The table is committed as RACE_XVAL.txt, and go test fails when it
// differs from what tlbvet writes now.
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
	Findings []ssa.Finding `json:"findings"`
	// Witnesses are expected rediscoveries of config-seeded faults (the
	// lockset cross-validation).
	Witnesses []ssa.Finding `json:"witnesses"`
	// XVal is the race cross-validation table: one row per registry
	// entry with its static discharge status.
	XVal []ssa.XValRow `json:"xval"`
	// FuncsVisited records per-analyzer whole-program coverage, so
	// dashboards can spot a silently narrowed walk.
	FuncsVisited map[string]int `json:"funcs_visited"`
	// TimingsMS is per-analyzer wall-clock milliseconds. Diagnostics
	// only: never part of the sorted report sections.
	TimingsMS map[string]float64 `json:"timings_ms"`
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit the report as JSON on stdout")
		xvalOut = flag.String("xval", "", "write the race cross-validation table (RACE_XVAL) to this file")
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
	rep := newReport(ssa.CheckModuleOnly(m, names))

	if *xvalOut != "" {
		if err := os.WriteFile(*xvalOut, []byte(renderXVal(rep)), 0o644); err != nil {
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
	printTimings(rep.TimingsMS)
	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "tlbvet: %d finding(s)\n", len(rep.Findings))
		os.Exit(1)
	}
	fmt.Println("tlbvet: clean")
}

// newReport shapes an analysis result as the report; empty sections
// encode as [] rather than null in -json.
func newReport(r *ssa.Result) report {
	return report{
		Findings:     append([]ssa.Finding{}, r.Findings...),
		Witnesses:    append([]ssa.Finding{}, r.Witnesses...),
		XVal:         r.XVal,
		FuncsVisited: r.FuncsVisited,
		TimingsMS:    r.Timings,
	}
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
// RACE_XVAL.txt: one row per race-registry entry, then lockset's
// witnesses. CI fails on any "unproven" row — a field the dynamic model
// instruments that the static tier cannot discharge.
func renderXVal(rep report) string {
	var b strings.Builder
	b.WriteString("# RACE_XVAL: static discharge status of every field the dynamic race model instruments\n")
	b.WriteString("# entry | variable | discipline | status | proof\n")
	for _, r := range rep.XVal {
		v := r.Var
		if v == "" {
			v = "-"
		}
		fmt.Fprintf(&b, "%s | %s | %s | %s | %s\n", r.Key, v, r.Discipline, r.Status, r.Detail)
	}
	for _, w := range rep.Witnesses {
		if w.Analyzer == "lockset" {
			fmt.Fprintf(&b, "witness | %s:%d | %s\n", w.File, w.Line, w.Msg)
		}
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
