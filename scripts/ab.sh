#!/usr/bin/env bash
# ab.sh — alternating A/B comparison of this checkout against a base revision,
# the protocol a performance claim is checked with.
#
#   ./scripts/ab.sh <base-rev> <workload> [pairs] [seconds]
#   ./scripts/ab.sh -micro <regex> <base-rev> [pairs] [benchtime]
#
# The base revision is cloned into a temporary directory (no worktree is
# registered with this repository); the candidate is this checkout's working
# tree, uncommitted changes included.
#
# End-to-end mode builds both benchmark binaries through benchmark/run.sh,
# then runs `-workload <workload> -seconds <seconds> -trace 0` (defaults: 10
# pairs, 3 s) once per side per pair, alternating which side goes first, and
# reads each run's end-to-end metrics from the summary line run.sh prints
# last, plus three information values from its op_tail_ms line: the slowest
# operations' latency, the percentile it reads (fewer timed operations give
# a lower one) and the number of timed operations it was taken over. Micro
# mode compiles the test binary of every package with a benchmark matching
# <regex> on both sides and alternates `-test.bench <regex>` runs the same
# way (defaults: 10 pairs, -benchtime 1s), reading ns/op.
#
# For every metric it prints both sides' medians and interquartile ranges
# (Python's exclusive quartiles, as the benchmark computes its spread), the
# ratio of the medians, and the pairs the candidate won by the metric's
# "better" direction in BENCHMARK.json (ns/op: lower). The verdict is
# "better" (or "worse") when the candidate wins (or loses) at least 9 in 10
# pairs and the medians differ by more than the base's interquartile range,
# and "same" otherwise. The information values get the same row with "info"
# for a verdict (wins count a lower tail latency and a higher percentile or
# operation count), so a change that removes stalls shows in the tail pair
# by pair. End-to-end mode exits 1 when any
# sim_* value differs between the two sides: a host-side change must not
# move a simulated number.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
	sed -n '5,6p' "$0" | sed 's/^# *//' >&2
	exit 2
}

micro=""
if [ "${1:-}" = "-micro" ]; then
	[ $# -ge 3 ] || usage
	micro="$2"
	shift 2
fi
[ $# -ge 1 ] || usage
base_rev="$1"
if [ -n "$micro" ]; then
	pairs="${2:-10}"
	benchtime="${3:-1s}"
else
	[ $# -ge 2 ] || usage
	workload="$2"
	pairs="${3:-10}"
	seconds="${4:-3}"
fi

sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git clone -q --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$sha"
base="$tmp/base"
echo "base $sha (clone in $base), candidate $root (working tree)" >&2

# run_side SIDE DIR PAIR: one run of one side, appending "SIDE PAIR name value"
# lines to $tmp/samples (information values to $tmp/info).
run_side() {
	local side="$1" dir="$2" pair="$3" out="$tmp/$1-$3.txt"
	if [ -n "$micro" ]; then
		: > "$out"
		while read -r rel; do
			(cd "$dir/$rel" && "$tmp/$side-$(echo "$rel" | tr / _).test" \
				-test.run '^$' -test.bench "$micro" -test.benchtime "$benchtime" -test.timeout 30m) |
				awk -v rel="$rel" '/^Benchmark/ {
					for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") {
						name = $1; sub(/-[0-9]+$/, "", name)
						print rel "/" name, $i
					}
				}' >> "$out"
		done < "$tmp/pkgs"
	else
		(cd "$dir" && bash benchmark/run.sh -workload "$workload" -seconds "$seconds" -trace 0) > "$out.log"
		tail -n 1 "$out.log" | grep -o '"[a-z_0-9.]*":{"value":[^,}]*' |
			sed 's/^"\([^"]*\)":{"value":/\1 /' > "$out"
		# "op_tail_ms <ms> ms p<pct> over <n> timed operations"
		awk -v side="$side" -v pair="$pair" '$1 == "op_tail_ms" {
			print side, pair, "op_tail_ms", $2
			print side, pair, "op_tail_percentile", substr($4, 2)
			print side, pair, "op_tail_operations", $6
		}' "$out.log" >> "$tmp/info"
	fi
	[ -s "$out" ] || { echo "ab: $side run $pair produced no metrics" >&2; exit 1; }
	sed "s/^/$side $pair /" "$out" >> "$tmp/samples"
}

if [ -n "$micro" ]; then
	module="$(awk '$1 == "module" { print $2; exit }' "$root/go.mod")"
	(cd "$root" && go test -list "$micro" ./...) | awk -v mod="$module" '
		/^(ok|FAIL)[ \t]/ { if (found) { p = $2; sub("^" mod, ".", p); print p }; found = 0; next }
		/^(Benchmark)/ { found = 1 }' > "$tmp/pkgs"
	[ -s "$tmp/pkgs" ] || { echo "ab: no benchmark matches $micro" >&2; exit 1; }
	for side in base cand; do
		dir="$root"
		[ "$side" = base ] && dir="$base"
		while read -r rel; do
			(cd "$dir" && go test -c -o "$tmp/$side-$(echo "$rel" | tr / _).test" "$rel")
		done < "$tmp/pkgs"
	done
else
	for dir in "$base" "$root"; do
		(cd "$dir" && bash benchmark/run.sh -spec > /dev/null)
	done
fi

: > "$tmp/samples"
: > "$tmp/info"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run_side base "$base" "$pair"
		run_side cand "$root" "$pair"
	else
		run_side cand "$root" "$pair"
		run_side base "$base" "$pair"
	fi
	echo "pair $pair/$pairs done" >&2
done

# The "better" direction of every end-to-end metric, from BENCHMARK.json.
awk -F'"' '$2 == "name" { name = $4 } $2 == "better" { print name, $4 }' "$root/BENCHMARK.json" > "$tmp/better"

awk -v pairs="$pairs" '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
function quart(a, n, k,    j, d) {
	if (n == 1) return a[1]
	j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = k * (n + 1) - 4 * j
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
FILENAME ~ /better$/ { dir[$1] = $2; next }
# The tail latency wins lower; more timed operations (and the higher
# percentile they allow) mean more throughput, so those win higher.
FILENAME ~ /info$/ { info[$3] = 1; dir[$3] = $3 == "op_tail_ms" ? "lower" : "higher" }
{
	v[$1, $2, $3] = $4
	if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 }
}
END {
	printf "%-40s %14s %10s %14s %10s %8s %6s  %s\n", "metric", "base median", "base IQR", "cand median", "cand IQR", "ratio", "wins", "verdict"
	bad = 0
	for (i = 1; i <= m; i++) {
		name = order[i]
		lower = (name in dir) ? dir[name] == "lower" : 1
		nb = nc = wins = losses = differ = 0
		delete b; delete c
		for (p = 1; p <= pairs; p++) {
			hb = (("base", p, name) in v); hc = (("cand", p, name) in v)
			if (hb) b[++nb] = v["base", p, name]
			if (hc) c[++nc] = v["cand", p, name]
			if (hb && hc) {
				x = v["base", p, name]; y = v["cand", p, name]
				if (x != y) differ = 1
				if (lower ? y < x : y > x) wins++
				else if (lower ? y > x : y < x) losses++
			}
		}
		if (nb == 0 || nc == 0) { printf "%-40s present on one side only\n", name; continue }
		sortv(b, nb); sortv(c, nc)
		mb = median(b, nb); mc = median(c, nc)
		iqb = quart(b, nb, 3) - quart(b, nb, 1); iqc = quart(c, nc, 3) - quart(c, nc, 1)
		gap = mc - mb; if (gap < 0) gap = -gap
		verdict = "same"
		if (wins * 10 >= 9 * pairs && gap > iqb) verdict = "better"
		if (losses * 10 >= 9 * pairs && gap > iqb) verdict = "worse"
		if (name in info) verdict = "info"
		if (name ~ /^sim_/) {
			verdict = differ ? "DIFFERS" : "exact"
			if (differ) bad = 1
		}
		printf "%-40s %14.6g %10.4g %14.6g %10.4g %8.4f %3d/%-2d  %s\n", name, mb, iqb, mc, iqc, (mb ? mc / mb : 0), wins, pairs, verdict
	}
	exit bad
}' "$tmp/better" "$tmp/samples" "$tmp/info"
