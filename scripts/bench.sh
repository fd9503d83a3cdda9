#!/bin/sh
# bench.sh — run every benchmark in the repository with -benchmem and write a
# machine-readable perf snapshot, so each PR leaves a trajectory point future
# changes can be compared against.
#
#   ./scripts/bench.sh                 # writes BENCH_41.json at the repo root
#   BENCH_OUT=perf.json ./scripts/bench.sh
#   BENCH_TIME=1s BENCH_COUNT=5 ./scripts/bench.sh   # slower, tighter numbers
#
# Each benchmark runs BENCH_COUNT times (default 5) at -benchtime BENCH_TIME
# (default 1x: one iteration per run, bounding wall-clock — the exhibit
# benchmarks regenerate entire paper figures per iteration). The snapshot
# records the fastest run's ns/op, and the MINIMUM bytes/op and allocs/op
# across runs: concurrent benchmarks allocate a scheduler-dependent amount
# of goroutine/channel machinery per run, so the minimum — not whichever
# run happened to be fastest — is the reproducible statistic. The slowest
# run's ns/op is recorded alongside (ns_max_per_op): the min-to-max span is
# the benchmark's own measured noise on this machine, and bench_diff.sh
# widens its regression threshold to that span so a benchmark is never
# failed for jitter its own baseline already exhibited.
set -eu

cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-BENCH_41.json}
COUNT=${BENCH_COUNT:-5}
TIME=${BENCH_TIME:-1x}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "==> go test -run '^\$' -bench . -benchmem -count=$COUNT -benchtime=$TIME ./..."
go test -run '^$' -bench . -benchmem -count="$COUNT" -benchtime="$TIME" ./... | tee "$RAW"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v gover="$(go env GOVERSION)" \
    -v cpus="$(nproc 2>/dev/null || echo 1)" \
    -v count="$COUNT" -v btime="$TIME" '
/^pkg: / { pkg = $2 }
/^Benchmark/ && NF >= 4 {
    name = $1
    sub(/-[0-9]+$/, "", name)
    key = pkg "|" name
    # Benchmarks may emit custom ReportMetric columns, so locate each value
    # by its unit token rather than by field position.
    v_ns = ""; v_b = ""; v_a = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") v_ns = $i
        if ($(i + 1) == "B/op") v_b = $i
        if ($(i + 1) == "allocs/op") v_a = $i
    }
    if (v_ns == "") next
    if (!(key in ns) || v_ns + 0 < ns[key] + 0) ns[key] = v_ns
    if (!(key in nsmax) || v_ns + 0 > nsmax[key] + 0) nsmax[key] = v_ns
    # Memory stats take the min independently of which run was fastest:
    # concurrent benchmarks allocate scheduler-dependent extras some runs.
    if (!(key in bytes) || v_b + 0 < bytes[key] + 0) bytes[key] = v_b + 0
    if (!(key in allocs) || v_a + 0 < allocs[key] + 0) allocs[key] = v_a + 0
    if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
}
END {
    print "{"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"count\": %d,\n", count
    printf "  \"benchtime\": \"%s\",\n", btime
    print "  \"benchmarks\": ["
    for (i = 1; i <= n; i++) {
        split(order[i], kp, "|")
        # %.0f, not %d: some awks (mawk) clamp %d at INT32_MAX, which
        # silently recorded 2147483647 for any benchmark slower than ~2.1 s.
        printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %.0f, \"ns_max_per_op\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            kp[1], kp[2], ns[order[i]], nsmax[order[i]], bytes[order[i]], allocs[order[i]], (i < n ? "," : "")
    }
    print "  ]"
    print "}"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
