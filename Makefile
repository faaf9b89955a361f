GO ?= go

.PHONY: all build test race lint vet vetjson xval checked faultcheck fuzz cover bench check clean

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full unit/integration test suite
test:
	$(GO) test ./...

## race: run the suite under the race detector
race:
	$(GO) test -race ./...

## lint: toolchain gates first (gofmt, go vet), then the static tier
## (tlbvet) — a stock-tool finding should fail before any whole-program
## analysis spins up
lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/tlbvet

## vet: the static tier alone — every internal/sanitizer/ssa analyzer
## (banned imports, cost constants, observer purity, flush obligations,
## lock order, detflow taint, parallelsafe, mhp (handler reach only)
## and lockset race-discipline proofs) off one typecheck
vet:
	$(GO) run ./cmd/tlbvet

## vetjson: machine-readable vet report (the VET_findings.json CI artifact)
vetjson:
	$(GO) run ./cmd/tlbvet -json > VET_findings.json || { cat VET_findings.json; exit 1; }

## xval: race cross-validation table (the RACE_XVAL.txt CI artifact) —
## every field the dynamic race model instruments, with its static
## discharge status
xval:
	$(GO) run ./cmd/tlbvet -xval RACE_XVAL.txt
	@cat RACE_XVAL.txt
	@if grep -q 'unproven' RACE_XVAL.txt; then \
		echo "xval gate: a race-instrumented field has no static discharge proof"; exit 1; fi

## checked: run the experiment suite with the shadow-oracle sanitizer
## and the happens-before race model attached to every machine
checked:
	$(GO) run ./cmd/tlbcheck -quick -v

## faultcheck: the checked suite under fault injection, on the sync tier
## and on the async fabric
faultcheck:
	$(GO) run ./cmd/tlbcheck -quick -faults light -v
	$(GO) run ./cmd/tlbcheck -quick -faults light -tlbmode async -v

## fuzz: randomized coherence fuzzing with both oracles attached, then
## both tiers' ack-recovery ladders under dropped kicks
fuzz:
	$(GO) run ./cmd/tlbfuzz -runs 50
	$(GO) run ./cmd/tlbfuzz -runs 25 -faults heavy
	$(GO) run ./cmd/tlbfuzz -runs 25 -faults drop -tlbmode sync
	$(GO) run ./cmd/tlbfuzz -runs 25 -faults drop -tlbmode async

## cover: coverage summary for the fault plane, the layers it perturbs,
## the dynamic race model the static lockset tier cross-validates, the
## TLB every simulated memory access goes through, the cacheline
## directory every shootdown's cacheline cost comes from, the page
## table every range operation walks, and the kernel that owns the
## page-flush loop and the CPU's run-time checks
cover:
	$(GO) test -coverprofile=coverage.out ./internal/fault/ ./internal/smp/ ./internal/apic/ ./internal/mm/ ./internal/race/ ./internal/sanitizer/ssa/ ./internal/mach/ ./internal/sim/ ./internal/tlb/ ./internal/cache/ ./internal/pagetable/ ./internal/kernel/
	$(GO) tool cover -func=coverage.out

## bench: parallel-harness wall-clock + event-loop allocs -> BENCH_parallel.json
bench:
	./scripts/bench.sh

## check: the gates CI runs (build, tests, race, lint, the checked suite
## under faults); scripts/ci.sh adds coverage, the proof table and the
## -parallel byte-identity gates
check: build test race lint faultcheck

clean:
	$(GO) clean ./...
