#!/bin/sh
# CI gate: build, the static-analysis tier, tests, race detector, and the
# checked experiment suite (shadow-oracle coherence sanitizer and race
# model attached together) under fault injection. Fails on the first
# broken step. Mirrors `make check`; the GitHub workflow runs this script.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

# Stock toolchain gates run before anything custom: a gofmt or go vet
# finding should fail the gate before a single whole-program analysis or
# simulation spins up.
echo "==> gofmt"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt needed on:"
    echo "$fmt_out"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# The static tier — every internal/sanitizer/ssa analyzer off one
# typecheck (banned imports, cost constants, observer purity, flush
# obligations, lock order, the detflow nondeterminism-taint proof, the
# parallelsafe restore-discipline proof, mhp (handler reach only) with
# the lockset race-discipline proofs, and the fabproof numeric
# obligations over the async fabric smp declares) —
# runs right after the stock gates: a finding should fail the gate in
# seconds, not after minutes of tests and simulations. The
# machine-readable report lands in VET_findings.json as
# a CI artifact, and the tier carries a wall-clock budget: the
# whole-program analyses must stay interactive (< 60s) or they will rot
# out of the edit loop. The two proof tables are written to a temporary
# directory, not over the committed RACE_XVAL.txt and FABPROOF.txt:
# go test's TestCommittedProofTables pins the committed copies to what
# tlbvet writes, which is what the workflow then uploads.
echo "==> tlbvet (static analysis)"
vet_start=$(date +%s)
tables=$(mktemp -d)
if ! go run ./cmd/tlbvet -json -xval "$tables/RACE_XVAL.txt" -fabproof "$tables/FABPROOF.txt" > VET_findings.json 2> VET_errors.txt; then
    cat VET_errors.txt VET_findings.json
    exit 1
fi
rm -f VET_errors.txt
cat VET_findings.json
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "tlbvet tier completed in ${vet_elapsed}s"
if [ "$vet_elapsed" -ge 60 ]; then
    echo "vet budget gate: static tier took ${vet_elapsed}s, budget is <60s"
    exit 1
fi

# Cross-validation gate: RACE_XVAL.txt lists every field the dynamic
# race model instruments alongside its static discharge status. Any
# "unproven" row means a shared location the happens-before detector
# watches at runtime that the lockset tier cannot prove disciplined —
# the two models have diverged, and that is a gate failure, not a TODO.
echo "==> race cross-validation (RACE_XVAL.txt)"
cat "$tables/RACE_XVAL.txt"
if grep -q 'unproven' "$tables/RACE_XVAL.txt"; then
    echo "xval gate: a race-instrumented field has no static discharge proof"
    exit 1
fi

# Fabric proof gate: FABPROOF.txt lists every numeric obligation on the
# async shootdown fabric (ring bounds, overflow collapse, seq/ack/gen
# monotonicity, retry cap, coalescing containment, callback-once, the
# freed-tables fallback, inval well-formedness) with its proof status.
# Any "unproven" row means the abstract interpreter can no longer
# discharge an invariant the fabric's safety rests on — a gate failure,
# not a TODO.
echo "==> fabric proof obligations (FABPROOF.txt)"
cat "$tables/FABPROOF.txt"
if grep -q 'unproven' "$tables/FABPROOF.txt"; then
    echo "fabproof gate: a fabric obligation has no static proof"
    exit 1
fi
rm -rf "$tables"

echo "==> go test ./..."
go test ./...

# bench/ is a module of its own, so the root go test skips it. Its smoke
# test checks the first cells of every workload against their golden
# lines, the exactness gate for any engine change; it takes about a
# second.
echo "==> go -C bench test ./..."
go -C bench test ./...

# Coverage floor for the fault-injection plane, the layers it perturbs,
# and the dynamic race model: the recovery protocol and async fabric
# (smp), the faultable IPI fabric (apic), the coalescing/address-space
# layer (mm) and the vector-clock detector (race) that the static
# lockset tier cross-validates must stay testable in isolation, not
# only via end-to-end suites. smp carries a raised floor: the ring/
# batch/watchdog paths are the newest protocol surface and must keep
# dedicated unit coverage. The per-package summary lands in
# COVERAGE.txt as a CI artifact.
# The ssa package joins the floor with the fabproof tier: the numeric
# abstract-interpretation engine (absint.go) and the fabric obligations
# built on it (fabproof.go) are proof code — an untested proof rule is a
# soundness hole, not a coverage gap.
# mach and sim join the floor with the scale-out tier: the sparse
# cpumask and the timer-wheel scheduler are load-bearing for every
# simulation at every width, and both carry property/equivalence suites
# that must keep exercising them in isolation.
# tlb joins the floor with its flat capacity classes: every simulated
# memory access goes through it, and its differential test against the
# map-and-ring TLB it replaced must keep reaching the probe, eviction and
# flush paths.
# cache joins the floor with sharer distance by id range: every
# shootdown's cacheline cost comes from its directory, and its
# differential test against the per-sharer walk it replaced must keep
# reaching every state transition.
# pagetable joins the floor with its indexed range walk: every range
# operation (munmap's zap, mprotect, fork's copy, the daemons' scans)
# walks it, and its differential test against the full scan it replaced
# must keep reaching the range bounds.
# kernel joins the floor with its page-flush loop: every ranged flush's
# per-page INVLPG/INVPCID steps run through FlushPages, and the CPU's two
# run-time checks (its owner check and the nested-poll check) live there,
# so their differential and panic tests must keep reaching them.
echo "==> coverage floor (fault, smp, apic, mm, race, sanitizer/ssa, mach, sim, tlb, cache, pagetable, kernel >= 80%; smp >= 92%)"
go test -coverprofile=coverage.out ./internal/fault/ ./internal/smp/ ./internal/apic/ ./internal/mm/ ./internal/race/ ./internal/sanitizer/ssa/ ./internal/mach/ ./internal/sim/ ./internal/tlb/ ./internal/cache/ ./internal/pagetable/ ./internal/kernel/ > COVERAGE.txt
go tool cover -func=coverage.out >> COVERAGE.txt
cat COVERAGE.txt
awk '
    /^ok / {
        pct = ""
        for (i = 1; i <= NF; i++) if ($i ~ /^[0-9.]+%$/) pct = $i
        sub(/%$/, "", pct)
        floor = ($2 ~ /internal\/smp$/) ? 92 : 80
        if (pct == "" || pct + 0 < floor) {
            printf "coverage gate: %s at %s%%, floor is %d%%\n", $2, pct, floor
            failed = 1
        }
    }
    END { exit failed }
' COVERAGE.txt
rm -f coverage.out

echo "==> go test -race ./..."
go test -race ./...

# The oracle stack must stay clean when every machine runs under an
# injected fault schedule: dropped/delayed kicks, stalled responders,
# spurious evictions, PCID recycling and preemption storms, recovered by
# the timeout/rekick/degrade path. One run checks every machine with
# both oracles. The unfaulted suite needs no stage of its own: go test
# already runs it (TestCheckedQuickSuite), and the cmd/tlbcheck tests
# cover the CLI's run loop and report formats.
echo "==> tlbcheck -faults light (checked suite under fault injection)"
go run ./cmd/tlbcheck -quick -faults light -v

# The same oracles on the async tier at the paper's width: every machine
# of the quick suite posts its shootdowns to the fabric rings of the
# default 56-CPU machine, so ring coalescing, overflow collapse, batch
# completion and the watchdog's rekick/degrade ladder run under both
# oracles and the light fault schedule.
echo "==> tlbcheck -faults light -tlbmode async (checked async suite, 56 CPUs)"
go run ./cmd/tlbcheck -quick -faults light -tlbmode async -v

# Both tiers' recovery under dropped kicks: the drop schedule loses kicks
# until its burst bound forces one through, so every seed drives the
# sync wait's timeout/rekick/degrade steps or the async watchdog, with
# both oracles checking every run.
echo "==> tlbfuzz -faults drop (sync and async recovery under both oracles)"
go run ./cmd/tlbfuzz -runs 25 -faults drop -tlbmode sync
go run ./cmd/tlbfuzz -runs 25 -faults drop -tlbmode async

# Async-fabric ablation: the queue-based dispatch tier's sweep gates
# the initiator-side win and digest equality against the synchronous
# tier internally (its match-sync column); here CI additionally pins
# the report byte-identical across worker counts, like every other
# experiment — the fabric's completion callbacks run on responder
# procs, which must not leak scheduling into the output.
echo "==> tlbsim -exp async (dispatch-tier ablation, -parallel 1 vs 8)"
go run ./cmd/tlbsim -exp async -quick -parallel 1 > ASYNC_1.txt
go run ./cmd/tlbsim -exp async -quick -parallel 8 > ASYNC_8.txt
if ! cmp -s ASYNC_1.txt ASYNC_8.txt; then
    echo "async ablation gate: output differs between -parallel 1 and -parallel 8"
    diff ASYNC_1.txt ASYNC_8.txt || true
    exit 1
fi
rm -f ASYNC_1.txt ASYNC_8.txt

# Scale-out smoke: the 512-CPU topologies, sparse cpumasks, per-cluster
# ack aggregation and the timer wheel all sit on the scale experiment's
# path. The quick sweep keeps storm count independent of width, so this
# gate stays within seconds; as everywhere, the report must be
# byte-identical at any worker count.
echo "==> tlbsim -exp scale (56/256/512-CPU sweep, -parallel 1 vs 8)"
scale_start=$(date +%s)
go run ./cmd/tlbsim -exp scale -quick -parallel 1 > SCALE_1.txt
go run ./cmd/tlbsim -exp scale -quick -parallel 8 > SCALE_8.txt
if ! cmp -s SCALE_1.txt SCALE_8.txt; then
    echo "scale gate: output differs between -parallel 1 and -parallel 8"
    diff SCALE_1.txt SCALE_8.txt || true
    exit 1
fi
rm -f SCALE_1.txt SCALE_8.txt
scale_elapsed=$(( $(date +%s) - scale_start ))
echo "scale smoke completed in ${scale_elapsed}s"
if [ "$scale_elapsed" -ge 120 ]; then
    echo "scale budget gate: smoke took ${scale_elapsed}s, budget is <120s"
    exit 1
fi

# Machine template: -topo, -tlbmode and -faults fill the one template
# (workload.Template) every experiment cell boots, so the whole quick
# suite runs on a 32-CPU async machine under the light schedule. As
# everywhere, the report must be byte-identical at any worker count.
echo "==> tlbsim -exp all -topo 2x8x2 -tlbmode async -faults light (-parallel 1 vs 8)"
template_flags="-exp all -quick -topo 2x8x2 -tlbmode async -faults light"
go run ./cmd/tlbsim $template_flags -parallel 1 > TEMPLATE_1.txt
go run ./cmd/tlbsim $template_flags -parallel 8 > TEMPLATE_8.txt
if ! cmp -s TEMPLATE_1.txt TEMPLATE_8.txt; then
    echo "template gate: output differs between -parallel 1 and -parallel 8"
    diff TEMPLATE_1.txt TEMPLATE_8.txt || true
    exit 1
fi
rm -f TEMPLATE_1.txt TEMPLATE_8.txt

# The oracles check the machine the template stage simulates: the same
# flags fill tlbcheck's template, so both oracles watch the quick suite
# on the 32-CPU async machine under the light schedule.
echo "==> tlbcheck -quick -topo 2x8x2 -tlbmode async -faults light (checked template suite)"
check_start=$(date +%s)
go run ./cmd/tlbcheck -quick -topo 2x8x2 -tlbmode async -faults light -v
echo "checked template suite completed in $(( $(date +%s) - check_start ))s"

echo "CI: all gates passed"
