#!/bin/sh
# bench.sh — measure the parallel harness and the event-loop hot path.
#
# Runs every experiment of the quick suite twice — at -parallel 1 (the
# sequential harness) and at -parallel <all cores> — and records the
# wall-clock of each, plus sync-vs-async dispatch-tier cells (the same
# experiments re-run under -tlbmode sync and -tlbmode async) and the
# sim package's event-loop microbenchmarks (ns/event and allocs/event,
# per switching Delay, per quiet poll and, from BenchmarkCondQuietWake,
# per quiet wake).
# Emits BENCH_parallel.json in the repo root and fails if the file does
# not parse as JSON; CI uploads it as an artifact.
#
# The outputs of the two runs are byte-compared along the way: a speedup
# that changes results would be a bug, not a feature.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
OUT=${OUT:-BENCH_parallel.json}
WORKERS=$(${GO} env GOMAXPROCS 2>/dev/null || true)
[ -n "$WORKERS" ] || WORKERS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

TLBSIM=$(mktemp -t tlbsim.XXXXXX)
SERIAL_OUT=$(mktemp -t tlbsim-serial.XXXXXX)
PARALLEL_OUT=$(mktemp -t tlbsim-parallel.XXXXXX)
BENCH_OUT=$(mktemp -t simbench.XXXXXX)
JSONCHECK=$(mktemp -d -t jsoncheck.XXXXXX)
trap 'rm -rf "$TLBSIM" "$SERIAL_OUT" "$PARALLEL_OUT" "$BENCH_OUT" "$JSONCHECK"' EXIT

echo "==> building tlbsim" >&2
${GO} build -o "$TLBSIM" ./cmd/tlbsim

now_ns() { date +%s%N; }

names=$("$TLBSIM" -list | sed -n 's/^  //p')

exp_json=""
# bench_one <row-name> <tlbsim args...>: time the run at -parallel 1
# and -parallel $WORKERS, byte-compare the outputs, append a JSON row.
bench_one() {
    rowname=$1; shift
    echo "==> $rowname" >&2
    t0=$(now_ns)
    "$TLBSIM" "$@" -quick -parallel 1 >"$SERIAL_OUT" 2>/dev/null
    t1=$(now_ns)
    "$TLBSIM" "$@" -quick -parallel "$WORKERS" >"$PARALLEL_OUT" 2>/dev/null
    t2=$(now_ns)
    if ! cmp -s "$SERIAL_OUT" "$PARALLEL_OUT"; then
        echo "bench.sh: $rowname output differs between -parallel 1 and -parallel $WORKERS" >&2
        exit 1
    fi
    serial_ns=$((t1 - t0))
    parallel_ns=$((t2 - t1))
    # Speedup via awk; the integers via shell printf — awk's %d can be
    # 32-bit and would mangle nanosecond counts past ~2.1s.
    speedup=$(awk -v s="$serial_ns" -v p="$parallel_ns" 'BEGIN {
        printf "%.3f", (p > 0) ? s / p : 0
    }')
    row=$(printf '{"name":"%s","serial_ns":%d,"parallel_ns":%d,"speedup":%s}' \
        "$rowname" "$serial_ns" "$parallel_ns" "$speedup")
    exp_json="$exp_json$row,"
}

for name in $names; do
    bench_one "$name" -exp "$name"
done

# Sync-vs-async dispatch-tier cells: the same experiment forced onto
# each tier via -tlbmode, so the artifact tracks what the asynchronous
# fabric costs/saves in wall-clock next to the simulated-cycle tables
# the `async` experiment row itself regenerates.
for mode in sync async; do
    bench_one "fig6@$mode" -exp fig6 -tlbmode "$mode"
    bench_one "fig10@$mode" -exp fig10 -tlbmode "$mode"
done
exp_json=${exp_json%,}

echo "==> event-loop microbenchmarks" >&2
${GO} test -run '^$' -bench '^(BenchmarkEventLoop|BenchmarkProcDelay|BenchmarkProcDelaySwitch|BenchmarkCondWaitPoll|BenchmarkCondQuietWake|BenchmarkEngineChurn)$' -benchmem ./internal/sim/ >"$BENCH_OUT"

# bench_line <name>: the result line of exactly that benchmark,
# "BenchmarkEventLoop-8  85503980  12.64 ns/op  0 B/op  0 allocs/op"
# (the -N GOMAXPROCS suffix is absent at GOMAXPROCS=1).
bench_line() { grep -E "^$1(-[0-9]+)?[[:space:]]" "$BENCH_OUT" | head -1; }
loop_line=$(bench_line BenchmarkEventLoop)
delay_line=$(bench_line BenchmarkProcDelay)
switch_line=$(bench_line BenchmarkProcDelaySwitch)
poll_line=$(bench_line BenchmarkCondWaitPoll)
wake_line=$(bench_line BenchmarkCondQuietWake)
loop_ns=$(echo "$loop_line" | awk '{print $3}')
loop_allocs=$(echo "$loop_line" | awk '{print $7}')
# ns_per_delay is the elided Delay (one proc, nothing else queued);
# ns_per_delay_switch is the Delay that must switch coroutines.
delay_ns=$(echo "$delay_line" | awk '{print $3}')
delay_allocs=$(echo "$delay_line" | awk '{print $7}')
switch_ns=$(echo "$switch_line" | awk '{print $3}')
switch_allocs=$(echo "$switch_line" | awk '{print $7}')
# ns_per_quiet_poll is one poll the engine re-arms without resuming the
# waiting proc (Cond.WaitPoll), the switch a spin loop no longer pays.
poll_ns=$(echo "$poll_line" | awk '{print $3}')
poll_allocs=$(echo "$poll_line" | awk '{print $7}')
# ns_per_quiet_wake is one Signal/Broadcast wake the engine re-arms without
# resuming the woken proc, the switch a semaphore waiter no longer pays
# when a release leaves the semaphore taken.
wake_ns=$(echo "$wake_line" | awk '{print $3}')
wake_allocs=$(echo "$wake_line" | awk '{print $7}')

# Scale grid: "BenchmarkEngineChurn/cpus=512-8  N  42.1 ns/op  0 B/op  0 allocs/op"
# -> one row per width; ns/event must stay flat with width and
# allocs/event must stay 0 (the tier-2 test TestEngineChurnScalesFlat
# enforces both; this just records the numbers).
churn_json=$(grep '^BenchmarkEngineChurn/' "$BENCH_OUT" | awk '{
    cpus = $1; sub(/^.*\/cpus=/, "", cpus); sub(/-[0-9]+$/, "", cpus)
    printf "%s{\"cpus\":%s,\"ns_per_event\":%s,\"allocs_per_event\":%s}", sep, cpus, $3, $7
    sep = ","
}')

{
    printf '{\n'
    printf '  "workers": %s,\n' "$WORKERS"
    printf '  "note": "speedup needs spare cores: on a 1-CPU host parallel==serial by design; outputs are byte-identical at every worker count",\n'
    printf '  "experiments": [%s],\n' "$exp_json"
    printf '  "event_loop": {"ns_per_event": %s, "allocs_per_event": %s, "ns_per_delay": %s, "allocs_per_delay": %s, "ns_per_delay_switch": %s, "allocs_per_delay_switch": %s, "ns_per_quiet_poll": %s, "allocs_per_quiet_poll": %s, "ns_per_quiet_wake": %s, "allocs_per_quiet_wake": %s},\n' \
        "$loop_ns" "$loop_allocs" "$delay_ns" "$delay_allocs" "$switch_ns" "$switch_allocs" "$poll_ns" "$poll_allocs" "$wake_ns" "$wake_allocs"
    printf '  "engine_churn": [%s]\n' "$churn_json"
    printf '}\n'
} >"$OUT"

# The artifact is only worth uploading if it parses: a benchmark renamed
# out from under the greps above would leave empty fields behind.
cat >"$JSONCHECK/main.go" <<'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func main() {
	b, err := io.ReadAll(os.Stdin)
	var v any
	if err == nil {
		err = json.Unmarshal(b, &v)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
EOF
if ! ${GO} run "$JSONCHECK/main.go" <"$OUT"; then
    echo "bench.sh: $OUT is not valid JSON" >&2
    cat "$OUT" >&2
    exit 1
fi

echo "==> wrote $OUT" >&2
cat "$OUT"
