#!/bin/sh
# bench_diff.sh — regression gate over the perf trajectory. Runs a fresh
# benchmark sweep (via bench.sh, into a temp file) and compares it against the
# latest checked-in BENCH_*.json snapshot, failing when any benchmark regressed
# by more than BENCH_DIFF_PCT percent (default 15) in ns/op or allocs/op.
#
#   ./scripts/bench_diff.sh                 # compare against newest BENCH_*.json
#   BENCH_DIFF_PCT=25 ./scripts/bench_diff.sh
#   BENCH_BASE=BENCH_1.json ./scripts/bench_diff.sh
#
# Snapshots run each benchmark for very few iterations (see bench.sh), so
# wall-clock numbers below ~1 ms are dominated by first-iteration effects and
# timer noise. The ns/op gate therefore only applies to benchmarks whose
# baseline is at least BENCH_DIFF_FLOOR_NS (default 1e6); allocs/op is
# deterministic and is gated for every benchmark. On shared machines the CPU
# throughput itself drifts between sweeps, so the per-benchmark threshold is
# widened to the baseline's own min-to-max run span (ns_max_per_op, recorded
# by bench.sh) whenever that span exceeds BENCH_DIFF_PCT: a benchmark whose
# five baseline runs already spread 40% apart cannot fail the gate at +20%.
# This makes the script a coarse tripwire for the big perf bugs (an
# accidental O(n^2), a lost buffer pool), not a microbenchmark referee.
# Benchmarks present on only one side are reported but do not fail the gate.
# Improvements never fail.
#
# Baselines written by older bench.sh versions under mawk clamp ns_per_op at
# INT32_MAX (2147483647) for benchmarks slower than ~2.1 s. Such a point
# carries no real timing information, so it is flagged as "clamped" and its
# ns/op diff is skipped; the allocs/op gate still applies.
#
# A baseline cut on a different core count is refused (exit 2), as
# `benchmark -compare` refuses differing nproc: concurrent benchmarks and
# their allocation counts are not comparable across core counts.
set -eu

cd "$(dirname "$0")/.."

PCT=${BENCH_DIFF_PCT:-15}
FLOOR=${BENCH_DIFF_FLOOR_NS:-1000000}
BASE=${BENCH_BASE:-$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1)}
if [ -z "$BASE" ] || [ ! -f "$BASE" ]; then
	echo "bench_diff: no BENCH_*.json baseline at the repo root" >&2
	exit 2
fi

FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT

# cpus_of SNAPSHOT: the core count the snapshot was cut on.
cpus_of() { awk -F'[:,]' '/"cpus"/ { gsub(/ /, "", $2); print $2; exit }' "$1"; }

BASE_CPUS=$(cpus_of "$BASE")
HOST_CPUS=$(nproc 2>/dev/null || echo 1)
if [ "$BASE_CPUS" != "$HOST_CPUS" ]; then
	echo "bench_diff: $BASE was cut on ${BASE_CPUS:-an unrecorded number of} CPU(s), this host has $HOST_CPUS; not comparable" >&2
	exit 2
fi

echo "==> baseline: $BASE ($BASE_CPUS CPUs, threshold: +$PCT%)"
BENCH_OUT="$FRESH" ./scripts/bench.sh >/dev/null

# Flatten one snapshot into "pkg|name ns allocs nsmax" lines. Baselines
# written before bench.sh recorded ns_max_per_op flatten with nsmax=0 (span
# unknown -> plain percentage threshold applies).
flatten() {
	tr ',' '\n' < "$1" | tr -d ' "{}[]' | awk -F: '
	$1 == "pkg"           { pkg = $2 }
	$1 == "name"          { name = $2; nsmax = 0 }
	$1 == "ns_per_op"     { ns = $2 }
	$1 == "ns_max_per_op" { nsmax = $2 }
	$1 == "allocs_per_op" { print pkg "|" name, ns, $2, nsmax }'
}

flatten "$BASE" > "$FRESH.base"
flatten "$FRESH" > "$FRESH.new"
trap 'rm -f "$FRESH" "$FRESH.base" "$FRESH.new"' EXIT

awk -v pct="$PCT" -v floor="$FLOOR" '
NR == FNR { base_ns[$1] = $2; base_al[$1] = $3; base_max[$1] = $4; next }
{
    new_seen[$1] = 1
    # A benchmark the baseline has never seen is "new", never a regression:
    # a PR adding a subsystem brings its benchmarks with it, and the first
    # snapshot that includes them becomes their baseline.
    if (!($1 in base_ns)) { printf "  new        %-60s (no baseline)\n", $1; fresh++; next }
    if (base_ns[$1] == 2147483647) {
        printf "  clamped    %-60s baseline ns/op hit INT32_MAX; skipping ns diff (now %.0f)\n", $1, $2
        ns_d = 0
    } else {
        ns_d = (base_ns[$1] >= floor) ? 100 * ($2 - base_ns[$1]) / base_ns[$1] : 0
    }
    al_d = base_al[$1] > 0 ? 100 * ($3 - base_al[$1]) / base_al[$1] : 0
    # Per-benchmark ns threshold: the baseline run-to-run span, when it is
    # larger than the global percentage.
    span = 0
    if (base_max[$1] + 0 > base_ns[$1] + 0 && base_ns[$1] + 0 > 0)
        span = 100 * (base_max[$1] - base_ns[$1]) / base_ns[$1]
    allow = (span > pct) ? span : pct
    if (ns_d > allow || al_d > pct) {
        printf "  REGRESSED  %-60s ns/op %+.1f%% (%d -> %d, threshold %.0f%%)  allocs/op %+.1f%% (%d -> %d)\n", \
            $1, ns_d, base_ns[$1], $2, allow, al_d, base_al[$1], $3
        bad++
    } else if (ns_d > pct) {
        printf "  noisy-ok   %-60s ns/op %+.1f%% within baseline span %.0f%%\n", $1, ns_d, span
    } else if (ns_d < -pct) {
        printf "  improved   %-60s ns/op %+.1f%%\n", $1, ns_d
    }
}
END {
    for (k in base_ns) if (!(k in new_seen)) printf "  missing    %-60s (in baseline, not in fresh run)\n", k
    if (bad) { printf "bench_diff: %d benchmark(s) regressed beyond %s%%\n", bad, pct; exit 1 }
    tail = fresh ? sprintf(" (%d new benchmark(s) without a baseline)", fresh) : ""
    print "bench_diff: no regression beyond " pct "%" tail
}' "$FRESH.base" "$FRESH.new"
