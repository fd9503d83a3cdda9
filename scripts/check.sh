#!/bin/sh
# check.sh — the repo's tier-1+ gate. Everything here must pass before a
# change lands:
#
#   0. gofmt         — gofmt -l . must list no file
#   1. go vet        — static checks, on this host's architecture and again
#                      with GOARCH=arm64: the Go fallbacks of the AVX-512
#                      kernels (internal/embedding, internal/tensor) must keep
#                      every non-amd64 build compiling
#   2. staticcheck   — soft gate: runs when installed, skipped otherwise
#   3. go build      — every package compiles
#   4. go test -race — the full suite under the race detector. Among it:
#                      internal/oracle's conformance sweep (50+ seeded
#                      workloads through every engine against the independent
#                      reference model); internal/archtest's rule table (one
#                      AST or type-aware row per design decision an earlier PR
#                      made, each with the PR, the reason and a seed that must
#                      trip it: no per-PE scheduler, one PE, one clock, one
#                      stream-round loop, one workload format, one way to
#                      serve, one golden check, read once, one reference, one
#                      reply encoder and request decoder, one value per
#                      setting; go test's cache reruns it whenever a file it
#                      reads changes); and cmd/fafnir-serve's gates, each
#                      booting the server in process: TestChaosGate (a 4-shard
#                      fleet loses shard 1 and still answers every request,
#                      some degraded, shard 1 dark and failed over, rnet
#                      combining, clean drain), TestQoSGate (a seeded burst at 2x the
#                      queue bound with a 20/80 high/low mix sheds only low
#                      traffic, and shed_total{lane} equals each lane's 503s),
#                      TestCacheGate (the cache cuts backend reads per query
#                      by >= 25% at a >= 50% hit ratio; /metrics carries the
#                      registry families, sub-millisecond buckets, stage
#                      histograms and burn rates) and TestFederationGate;
#                      cmd/fafnir-trace's traced lookup must validate and
#                      attribute >= 95% of its window to named stages
#   5. fafnir -race  — the engine package again at GOMAXPROCS=1 and at the
#                      host default, so hardware-batch pipelining is
#                      exercised both fully serialized and fully interleaved
#   6. uncached      — the oracle sweep with -count=1 and the serving layer
#                      twenty times over (on its manual clock: a flake here
#                      is a bug), so the gate never passes on a cached result
#   7. fuzz corpus   — every Fuzz target's seed corpus replayed in -run mode
#                      (no fuzzing; deterministic and fast). Long-running
#                      fuzzing is opt-in: go test -fuzz=<Target> <package>
#   7g. exhibits     — all 25 fafnir-bench exhibits are regenerated at -j 1
#                      and at the default and must be byte-equal to
#                      results/ (ROADMAP item 3): a change that moves a
#                      simulated number re-records results/ and says why.
#                      With EXHIBIT_BASE=<checkout of the parent commit> they
#                      are regenerated there too and must be byte-equal
#   8. coverage      — every internal/ package must keep statement coverage
#                      at or above the floor (80%)
#   9. server smoke  — build fafnir-serve and fafnir-loadgen, boot the
#                      service on a free port, fire a concurrent burst,
#                      record a burst with -record and replay it with -replay
#                      requiring identical request counts, then SIGTERM and
#                      require a clean drain (exit 0 with in-flight work
#                      finished)
#
# Perf regressions are gated separately by scripts/bench_diff.sh (benchmarks
# are too slow for every pre-land run).
#
# Run from the repo root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

COVER_FLOOR=${COVER_FLOOR:-80}

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (soft gate)"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -race ./internal/fafnir . (GOMAXPROCS=1)"
GOMAXPROCS=1 go test -race -count=1 ./internal/fafnir .

echo "==> go test -race ./internal/fafnir . (GOMAXPROCS default)"
go test -race -count=1 ./internal/fafnir .

echo "==> oracle conformance sweep (-race, -count=1)"
go test -race -count=1 -run 'TestConformance' ./internal/oracle

echo "==> go test -race -count=20 ./internal/serve"
go test -race -count=20 ./internal/serve

echo "==> fuzz corpus (replay, -run mode)"
go test -count=1 -run '^Fuzz' ./...

echo "==> exhibits byte-equal to results/${EXHIBIT_BASE:+ and $EXHIBIT_BASE} (-j 1 and default)"
EXH=$(mktemp -d)
for j in "-j 1" ""; do
    rm -rf "$EXH/base" "$EXH/here"
    # shellcheck disable=SC2086
    go run ./cmd/fafnir-bench -out "$EXH/here" -format md $j > /dev/null
    diff -r results "$EXH/here" \
        || { rm -rf "$EXH"; echo "exhibits differ from results/ at '${j:-default -j}': re-record results/ only for a change that means to move a number"; exit 1; }
    if [ -n "${EXHIBIT_BASE:-}" ]; then
        # shellcheck disable=SC2086
        (cd "$EXHIBIT_BASE" && go run ./cmd/fafnir-bench -out "$EXH/base" -format md $j > /dev/null)
        diff -r "$EXH/base" "$EXH/here" \
            || { rm -rf "$EXH"; echo "exhibits differ from $EXHIBIT_BASE at '${j:-default -j}'"; exit 1; }
    fi
done
rm -rf "$EXH"

echo "==> coverage floor (internal packages >= ${COVER_FLOOR}%)"
go test -cover ./internal/... | awk -v floor="$COVER_FLOOR" '
{ print }
/coverage:/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "coverage:" && $(i + 1) ~ /%$/) {
            pct = $(i + 1); sub(/%.*/, "", pct)
            if (pct + 0 < floor) { bad[$2] = pct; n++ }
        }
    }
}
END {
    for (p in bad) printf "coverage below %s%%: %s at %s%%\n", floor, p, bad[p]
    exit n > 0
}'

echo "==> server smoke: boot fafnir-serve, drive it, record and replay, drain it"
SMOKE=$(mktemp -d)
SERVE_PID=
# The kill must not decide the script's exit status: with the PID already
# empty (the normal clean path) it fails, and a failing EXIT trap overrides
# the exit code under set -e.
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/fafnir-serve" ./cmd/fafnir-serve
go build -o "$SMOKE/fafnir-loadgen" ./cmd/fafnir-loadgen

"$SMOKE/fafnir-serve" -addr 127.0.0.1:0 -rows 4096 -linger 500us \
    > "$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!

# Startup handshake: fafnir-serve prints "listening on host:port" once the
# listener is bound; poll for it rather than sleeping a fixed interval.
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(awk '/^listening on /{print $3; exit}' "$SMOKE/serve.log" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SMOKE/serve.log"; echo "smoke: server died on startup"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || { cat "$SMOKE/serve.log"; echo "smoke: server never announced its port"; exit 1; }

"$SMOKE/fafnir-loadgen" -url "http://$ADDR" -clients 4 -requests 64 \
    -duration 10s -rows 4096 > "$SMOKE/loadgen.log" 2>&1 \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: loadgen failed"; exit 1; }
awk '/^sent 64 in .*: 64 ok, 0 overload \(503\), 0 deadline \(504\), 0 other$/ { ok = 1 } END { exit !ok }' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: the burst did not get 64 replies of 200"; exit 1; }

# Record the burst shape, replay it verbatim, and require both runs to
# report the same request count — the flight-recorder repro loop.
"$SMOKE/fafnir-loadgen" -url "http://$ADDR" -clients 2 -requests 32 \
    -duration 10s -rows 4096 -record "$SMOKE/record.jsonl" \
    > "$SMOKE/record.log" 2>&1 \
    || { cat "$SMOKE/record.log"; echo "smoke: recorded loadgen run failed"; exit 1; }
"$SMOKE/fafnir-loadgen" -url "http://$ADDR" -replay "$SMOKE/record.jsonl" \
    -duration 10s > "$SMOKE/replay.log" 2>&1 \
    || { cat "$SMOKE/replay.log"; echo "smoke: replayed loadgen run failed"; exit 1; }
REC_SENT=$(awk '/^sent /{print $2; exit}' "$SMOKE/record.log")
REP_SENT=$(awk '/^sent /{print $2; exit}' "$SMOKE/replay.log")
[ -n "$REC_SENT" ] && [ "$REC_SENT" = "$REP_SENT" ] \
    || { cat "$SMOKE/record.log" "$SMOKE/replay.log"; \
         echo "smoke: replay sent ${REP_SENT:-nothing}, recorded run sent ${REC_SENT:-nothing}"; exit 1; }
echo "smoke: record/replay both sent $REC_SENT requests"

kill -TERM "$SERVE_PID"
SMOKE_RC=0
wait "$SERVE_PID" || SMOKE_RC=$?
SERVE_PID=
[ "$SMOKE_RC" -eq 0 ] || { cat "$SMOKE/serve.log"; echo "smoke: server exited $SMOKE_RC on SIGTERM"; exit 1; }
awk '/^drained cleanly: / { print; ok = 1 } END { exit !ok }' "$SMOKE/serve.log" \
    || { cat "$SMOKE/serve.log"; echo "smoke: no clean drain line"; exit 1; }

echo "OK: all checks passed"
