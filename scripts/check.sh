#!/bin/sh
# check.sh — the repo's tier-1+ gate. Everything here must pass before a
# change lands:
#
#   0. gofmt         — gofmt -l . must list no file
#   1. go vet        — static checks
#   1b. arm64 vet    — go vet again with GOARCH=arm64: the Go fallbacks of
#                      the AVX-512 kernels (internal/embedding, internal/tensor)
#                      must keep every non-amd64 build compiling
#   2. staticcheck   — soft gate: runs when installed, skipped otherwise
#   3. go build      — every package compiles
#   4. go test -race — full suite under the race detector (includes the
#                      internal/oracle conformance sweep: 50+ seeded random
#                      workloads replayed through every engine against the
#                      independent reference model, and cmd/fafnir-serve's
#                      TestFederationGate: a 2-fleet x 4-shard federation
#                      booted in process must answer 64 concurrent mean
#                      lookups with 200s, count its federation_* and
#                      rnet_combines_total families on /metrics, and drain
#                      cleanly)
#   5. fafnir -race  — the engine package again at GOMAXPROCS=1 and at the
#                      host default, so hardware-batch pipelining (the pass
#                      workers of Lookup/TimedLookup) is exercised both fully
#                      serialized and fully interleaved
#   6. conformance   — the oracle sweep once more with -count=1, so the gate
#                      never passes on a cached test result
#   6b. serve -race  — the serving layer's suite twenty times over under the
#                      race detector: its schedules run on a manual clock and
#                      synchronous admission, so a flake here is a bug
#   7. fuzz corpus   — FuzzCodec's, FuzzBitsetOps', FuzzBatchBuild's,
#                      FuzzCacheOps', FuzzFromCOO's, FuzzParseFleet's,
#                      FuzzLookupRequest's, FuzzLookupDecode's,
#                      FuzzReplyEncoding's, FuzzLoadWorkload's, FuzzParseMix's,
#                      FuzzParseSLO's, FuzzTopology's, FuzzFillKernel's and
#                      FuzzSumKernel's seed corpora replayed in -run mode (no
#                      fuzzing; deterministic and fast)
#   7b. one grain    — runtime.Gosched, stealHead and evalAsync must appear in
#                      no non-test Go file: host parallelism is whole hardware
#                      batches, shards and fleets, never a per-PE scheduler
#   7c. one PE       — no non-test file of internal/fafnir calls the
#                      sorted-slice set algebra (.ContainsAll, .Union, .Minus)
#                      or sorts sorted-slice sets: the engine carries headers
#                      as header.Bitset words end to end, and its PE is
#                      reached only through the engine (no exported Entry,
#                      ProcessPE or SelfMerge; examples/dedup, a second
#                      hand-rolled tree walk, is gone). The merge unit's order
#                      is a property of the bits alone: non-test
#                      internal/header has no ReverseBytes32 and no
#                      IndexSet.Key. The PE joins class chains: setTable,
#                      canon(, partner( and byClass( (the bitset PE's hash
#                      table, sort, probe and grouping, now the tests'
#                      referee) appear in no non-test file of internal/fafnir
#   7d. one clock    — internal/sim is a cycle type, not a kernel: no non-test
#                      Go file may import container/heap, call sim.NewEngine
#                      or sim.NewStats, or bump a string-keyed "dram." counter,
#                      and internal/scale (the host-combine fleet model
#                      router.Fleet replaced) must not exist
#   7e. one schedule — the Fig. 8 stream-round loop lives in internal/spmv:
#                      StreamRead( and StreamWrite( appear in non-test Go only
#                      there and in internal/dram, internal/twostep (a
#                      spmv.Schedule preset) has no for loop, and the
#                      rounding-up clock-domain crossing is written out only
#                      in internal/sim (sim.Rescale) and called only from
#                      internal/dram (dram.Config.ToPE)
#   7f. one workload — internal/trace's JSONL request stream is the only
#       format         replayable workload: recordedRequest is gone, and
#                      tensor.ParseOp is the only parser of a pooling-op name
#   7h. one way to   — fafnir-serve's shape flags pick the backend and
#       serve          fafnir.NewServer serves all three: NewFleetServer,
#                      NewFederationServer, the fault-storm flag and
#                      internal/mlp appear in no non-test Go file and not in
#                      this script
#   7i. one golden   — api.go re-checks no lookup: the engine checks every
#       check          hardware batch against a fold of the rows its leaf
#                      read staged, and interactive mode's outputs are that
#                      fold, so api.go has no verify( and calls Golden only
#                      inside System.Golden
#   7j. read once    — the cache fill copies the rows the backend's leaf
#                      reads staged: System, Fleet and Federation have no
#                      Row method, and internal/serve calls no .Row( and no
#                      store.Vector( in non-test Go
#   7k. one          — each lookup path has one golden reference, compared
#       reference      exactly: no non-test Go file outside internal/oracle
#                      and benchmark/ imports internal/oracle (the test
#                      referee), ApproxEqual and a Verify bool knob appear in
#                      no non-test Go file, and internal/rnet/rnet.go keeps no
#                      owned-vector bookkeeping (the root's values are the
#                      serial fold)
#   7l. one reply    — handleLookup appends its 200 reply with the reply
#       encoder and    encoder (internal/serve/reply.go), byte-identical to
#       one request    encoding/json and held there by FuzzReplyEncoding: it
#       decoder        calls no json.NewEncoder or json.Marshal and no
#                      writeJSON with a 200 status. A lookup body is parsed by
#                      hand when canonical (internal/serve/decode.go), so
#                      handleLookup calls no json.NewDecoder or
#                      json.Unmarshal, and in non-test internal/serve those
#                      appear only inside decodeReference, the one fallback;
#                      TestClientBodiesTakeFastPath requires zero fallbacks on
#                      every body the project's clients send
#   7m. one value    — a setting with one value is a constant: the nineteen
#       per setting    fields SystemConfig, serve.Config, router.Config and
#                      rnet.Config lost (ZipfS, QuerySize, DisableDedup,
#                      MaxQueriesPerRequest, RetryDeadline, LinkCycles, ...)
#                      are declared in none of them, and TimedLookupFaulted
#                      (the fault injector rides dram.System), countAbandoned,
#                      fafnir_router_retries_abandoned_total and the
#                      -cache-seed flag appear in no non-test Go file. One
#                      clock per domain: ClockMHz and DRAMClockMHz are
#                      declared in none of fafnir.Config, cpu.Config,
#                      recnmp.Config, tensordimm.Config, twostep.Config and
#                      spmv.Schedule (the PE clock is sim.PEClockMHz, the
#                      memory's is dram.Config.ClockMHz), DRAMClockMHz
#                      appears in no non-test Go file, and outside
#                      internal/dram and internal/sim no non-test Go file
#                      converts a memory value with a bare sim.Cycle( or
#                      sim.MemCycle( (cross with dram's ToPE and FromPE)
#   7g. exhibits     — all 25 fafnir-bench exhibits are regenerated at -j 1
#                      and at the default and must be byte-equal to
#                      results/ (ROADMAP item 3): a change that moves a
#                      simulated number re-records results/ and says why.
#                      With EXHIBIT_BASE=<checkout of the parent commit> they
#                      are regenerated there too and must be byte-equal
#   8. coverage      — every internal/ package must keep statement coverage
#                      at or above the floor (80%)
#   9. telemetry     — run fafnir-sim with -trace-out, validate the emitted
#                      Chrome trace with fafnir-trace validate (well-formed
#                      JSON, known phases, monotonic timestamps per lane),
#                      and require fafnir-trace report to attribute >= 95%
#                      of the traced window to named pipeline stages
#  10. server smoke  — build fafnir-serve and fafnir-loadgen, boot the
#                      service on a free port, fire a concurrent burst,
#                      scrape /metrics (including the registry's telemetry
#                      families, sub-millisecond latency buckets, the
#                      per-stage latency histograms, and the SLO burn-rate
#                      gauges), record the burst with -record and replay it
#                      with -replay requiring identical request counts, then
#                      SIGTERM and require a clean drain (exit 0 with
#                      in-flight work finished)
#  11. chaos gate    — boot a 4-shard fleet with shard 1 killed by -faults
#                      (the fleet grammar), fire a burst through the router, and
#                      require zero 5xx (every request rides replica
#                      failover), degraded responses surfaced to clients,
#                      the shard_dark metric tripped and rnet combines
#                      counted on /metrics (a default fleet combines
#                      in-network), and a clean SIGTERM drain
#  12. qos gate      — fire a seeded open-loop burst at 2x the queue bound
#                      with a 20/80 high/low priority mix (lanes are always on),
#                      and require zero high-priority sheds, at least one
#                      low-priority shed, and the shed_total{lane} counters
#                      agreeing with the client's view
#  13. cache gate    — run the same seeded Zipf workload against a cache-off
#                      and a cache-on server; the cache must cut backend
#                      reads per query by >= 25% at a >= 50% hit ratio
#
# Long-running fuzzing is opt-in, not part of the gate:
#
#   go test -fuzz=FuzzCodec -fuzztime=30s ./internal/header
#   go test -fuzz=FuzzBitsetOps -fuzztime=30s ./internal/header
#   go test -fuzz=FuzzBatchBuild -fuzztime=30s ./internal/batch
#   go test -fuzz=FuzzFromCOO -fuzztime=30s ./internal/sparse
#   go test -fuzz=FuzzParseFleet -fuzztime=30s ./internal/fault
#   go test -fuzz=FuzzLookupRequest -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzLookupDecode -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzReplyEncoding -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzLoadWorkload -fuzztime=30s ./internal/trace
#   go test -fuzz=FuzzParseMix -fuzztime=30s ./cmd/fafnir-loadgen
#   go test -fuzz=FuzzParseSLO -fuzztime=30s ./cmd/fafnir-serve
#   go test -fuzz=FuzzTopology -fuzztime=30s ./cmd/fafnir-serve
#   go test -fuzz=FuzzFillKernel -fuzztime=30s ./internal/embedding
#   go test -fuzz=FuzzSumKernel -fuzztime=30s ./internal/tensor
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
# ./internal/serve/ replays FuzzLookupRequest, FuzzLookupDecode and
# FuzzReplyEncoding.
go test -run 'Fuzz' ./internal/header/ ./internal/batch/ ./internal/cache/ ./internal/sparse/ ./internal/fault/ ./internal/serve/ ./internal/trace/ ./internal/embedding/ ./internal/tensor/ ./cmd/fafnir-loadgen/ ./cmd/fafnir-serve/

echo "==> one grain of host parallelism (no per-PE scheduler in non-test code)"
! grep -rlE 'runtime\.Gosched|stealHead|evalAsync' --include='*.go' --exclude='*_test.go' . \
    || { echo "a tree scheduler is back: see docs/ARCHITECTURE.md section 9"; exit 1; }

echo "==> one PE implementation (no sorted-slice set algebra in internal/fafnir, reached only through the engine)"
! grep -rnE '\.(ContainsAll|Union|Minus)\(|SortFunc\(.*IndexSet' --include='*.go' --exclude='*_test.go' internal/fafnir \
    || { echo "internal/fafnir is back on sorted-slice headers: see docs/ARCHITECTURE.md section 3"; exit 1; }
! grep -rnE 'func ProcessPE|func SelfMerge|type Entry struct' --include='*.go' --exclude='*_test.go' internal/fafnir \
    || { echo "internal/fafnir exports a PE outside the engine again: run it through Engine.Lookup/TimedLookup"; exit 1; }
[ ! -e examples/dedup ] \
    || { echo "examples/dedup is back: the fig6 exhibit prints the worked example through the engine"; exit 1; }
! grep -rnE 'ReverseBytes32|func \(s IndexSet\) Key' --include='*.go' --exclude='*_test.go' internal/header \
    || { echo "internal/header reproduces a global-index key order again: the canonical order reads only the bits"; exit 1; }
! grep -rnE 'setTable|canon\(|partner\(|byClass\(' --include='*.go' --exclude='*_test.go' internal/fafnir \
    || { echo "internal/fafnir hashes, probes or sorts header sets again: the PE joins class chains (docs/ARCHITECTURE.md section 3)"; exit 1; }

echo "==> one clock (no event queue, no string-keyed DRAM counters, no internal/scale)"
! grep -rlE 'container/heap|sim\.NewEngine|sim\.NewStats|\.Inc\("dram\.' --include='*.go' --exclude='*_test.go' . \
    || { echo "an event queue or string-keyed counter registry is back: dram.Counters and fafnir.OfferedLoad need neither"; exit 1; }
[ ! -e internal/scale ] \
    || { echo "internal/scale is back: abl-scaleout runs on router.Fleet"; exit 1; }

echo "==> one schedule, one clock-domain crossing (Two-Step is a spmv.Schedule preset)"
! grep -rlE 'Stream(Read|Write)\(' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/(dram|spmv)/' \
    || { echo "a second stream-round loop is back: spmv.Schedule.Run owns the only one"; exit 1; }
! grep -nE '^[[:space:]]*for ' internal/twostep/twostep.go \
    || { echo "internal/twostep loops again: it is a parameter set for spmv.Schedule, not an engine"; exit 1; }
! grep -rlF 'ratio - 1) / ratio' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/sim/' \
    || { echo "a hand-written clock-domain crossing is back: cross with dram.Config.ToPE"; exit 1; }
! grep -rlF 'sim.Rescale(' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/(sim|dram)/' \
    || { echo "sim.Rescale is called outside internal/dram: cross with the memory's own ToPE"; exit 1; }

echo "==> one replayable workload format, one pooling-op parser"
! grep -rlE 'recordedRequest|func [pP]arseOp\(' --include='*.go' . | grep -v '^\./internal/tensor/' \
    || { echo "a second workload record or op parser is back: use internal/trace and tensor.ParseOp"; exit 1; }

echo "==> one way to build a served deployment"
OLD_SERVE='NewFleetServer|NewFederationServer|fault-storm|internal/mlp'
! grep -rlE "$OLD_SERVE" --include='*.go' --exclude='*_test.go' . \
    || { echo "a deleted serving constructor, flag or package is back: serve through fafnir.NewServer and -faults"; exit 1; }
! grep -vE '^[[:space:]]*#|OLD_SERVE' scripts/check.sh | grep -E "$OLD_SERVE" \
    || { echo "check.sh drives a deleted serving constructor, flag or package"; exit 1; }

echo "==> one golden check per lookup (the engine checks each hardware batch)"
! grep -n 'verify(' api.go \
    || { echo "api.go: a lookup is re-checked after the engine: the engine folds the reference itself"; exit 1; }
! awk 'index($0, "func (s *System) Golden(") == 1 { on = 1 }
       !on && !/^[[:space:]]*\/\// && /Golden\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       on && (/^}/ || /^func .*}$/) { on = 0 }
       END { exit !bad }' api.go \
    || { echo "api.go: calls Golden outside System.Golden"; exit 1; }

echo "==> read once (the cache fill copies the rows the backend read)"
! grep -rnE 'func \([a-z]+ \*(System|Fleet|Federation)\) Row\(' --include='*.go' --exclude='*_test.go' . \
    || { echo "a backend synthesizes rows for the cache again: hand out the rows Lookup read (AttachRowSink)"; exit 1; }
! grep -rnE '\.Row\(|store\.Vector\(' --include='*.go' --exclude='*_test.go' internal/serve \
    || { echo "internal/serve reads rows outside the backend's Lookup: fill the cache from the row hand-off"; exit 1; }

echo "==> one golden reference per lookup path, compared exactly"
! grep -rlF '"fafnir/internal/oracle"' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./(internal/oracle|benchmark)/' \
    || { echo "a non-test package imports internal/oracle: the oracle is the tests' referee, not a runtime check"; exit 1; }
! grep -rnE 'ApproxEqual|Verify bool' --include='*.go' --exclude='*_test.go' . \
    || { echo "a tolerance or an opt-in re-check is back: lookups compare exactly, once"; exit 1; }
! grep -n 'owned' internal/rnet/rnet.go \
    || { echo "internal/rnet tracks vector ownership again: the root's values are the serial fold"; exit 1; }

echo "==> one request decoder and one reply encoder (lookups are parsed and appended, not reflected)"
! awk 'FNR == 1 { on = "" }
       index($0, "func (s *Server) handleLookup(") == 1 { on = "handle" }
       index($0, "func decodeReference(") == 1 { on = "fallback" }
       on != "fallback" && /json\.(NewDecoder|Unmarshal)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       on == "handle" && /json\.(NewEncoder|Marshal)|writeJSON\(w, (http\.StatusOK|200)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       on && /^}/ { on = "" }
       END { exit !bad }' $(ls internal/serve/*.go | grep -v '_test\.go$') \
    || { echo "a lookup is decoded or its reply rendered through encoding/json outside the one fallback: parse canonical bodies by hand, leave the rest to decodeReference, append the reply with the reply encoder"; exit 1; }

echo "==> one value per setting (fixed settings stay constants, not config fields)"
! awk '/^type (SystemConfig|Config) struct/ { on = 1; next }
       on && /^}/ { on = 0 }
       on && $1 ~ /^(ZipfS|QuerySize|DisableDedup|MaxQueriesPerRequest|RetryJitterSeed|CacheSeed|ShedLowWater|DeadlineSlack|SLOWindow|SLOBudget|SLOK|FailureThreshold|RetryDeadline|Host|OwnerStride|OwnerPhase|LinkCycles|SwitchLatency|CombineCycles),?$/ {
           print FILENAME ":" FNR ": " $0; bad = 1 }
       END { exit !bad }' api.go internal/serve/serve.go internal/router/router.go internal/rnet/rnet.go \
    || { echo "a deleted config field is back: a setting no program sets is the constant it defaults to"; exit 1; }
! grep -rnE 'TimedLookupFaulted|countAbandoned|fafnir_router_retries_abandoned_total|"cache-seed"' --include='*.go' --exclude='*_test.go' . \
    || { echo "a deleted fault-injector path, retry-deadline path or -cache-seed flag is back"; exit 1; }
! awk '/^type (Config|Schedule) struct/ { on = 1; next }
       on && /^}/ { on = 0 }
       on && $1 ~ /^(ClockMHz|DRAMClockMHz),?$/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       END { exit !bad }' internal/fafnir/config.go internal/cpu/cpu.go internal/recnmp/recnmp.go internal/tensordimm/tensordimm.go internal/twostep/twostep.go internal/spmv/schedule.go \
    || { echo "an engine keeps its own clock again: the PE clock is sim.PEClockMHz, the memory's is dram.Config.ClockMHz"; exit 1; }
! grep -rnE 'DRAMClockMHz' --include='*.go' --exclude='*_test.go' . \
    || { echo "DRAMClockMHz is back: an engine reads the memory's clock from the dram.System it is handed"; exit 1; }
# A conversion's argument (up to two nested calls deep) names the memory.
BARE='sim\.(Mem)?Cycle\(([^()]|\(([^()]|\([^()]*\))*\))*(ClockMHz|\bmem\b|mcfg|\.Now\(\)|TransferCycles|\.T(RCD|CAS|RP|Burst|RRD|FAW|REFI|RFC)\b)'
! grep -rnE "$BARE" --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/(dram|sim)/' \
    || { echo "a memory value is converted with a bare sim.Cycle( or sim.MemCycle(: cross with dram's ToPE or FromPE"; exit 1; }

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

echo "==> telemetry: traced fafnir-sim run validates as Chrome trace JSON"
SMOKE=$(mktemp -d)
SERVE_PID=
FLEET_PID=
QOS_PID=
CACHE_PID=
# The kill must not decide the script's exit status: with every PID already
# empty (the normal clean path) it fails, and a failing EXIT trap overrides
# the exit code under set -e.
trap 'kill "$SERVE_PID" "$FLEET_PID" "$QOS_PID" "$CACHE_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/fafnir-sim" ./cmd/fafnir-sim
go build -o "$SMOKE/fafnir-trace" ./cmd/fafnir-trace
"$SMOKE/fafnir-sim" -mode lookup -engine fafnir -batch 8 -q 8 -rows 4096 \
    -trace-out "$SMOKE/run-trace.json" > "$SMOKE/sim.log" 2>&1 \
    || { cat "$SMOKE/sim.log"; echo "telemetry: traced sim run failed"; exit 1; }
"$SMOKE/fafnir-trace" validate "$SMOKE/run-trace.json" \
    || { echo "telemetry: emitted trace failed validation"; exit 1; }
"$SMOKE/fafnir-trace" report "$SMOKE/run-trace.json" > "$SMOKE/report.log" 2>&1 \
    || { cat "$SMOKE/report.log"; echo "telemetry: trace report failed"; exit 1; }
[ -s "$SMOKE/report.log" ] || { echo "telemetry: trace report produced no output"; exit 1; }
# The report must attribute >= 95% of the simulated window to named stages:
# unattributed time means a pipeline stage lost its spans.
awk '/^attributed: /{ pct = $7; gsub(/[(%]/, "", pct)
    printf "telemetry: report attributes %s%% of the traced window\n", pct
    found = 1; ok = (pct + 0 >= 95) }
END { exit !(found && ok) }' "$SMOKE/report.log" \
    || { cat "$SMOKE/report.log"; echo "telemetry: report attributes < 95% of the smoke trace"; exit 1; }

echo "==> server smoke: boot fafnir-serve, drive it, drain it"
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
    -duration 10s -rows 4096 -dump-metrics > "$SMOKE/loadgen.log" 2>&1 \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: loadgen failed"; exit 1; }
grep -q '^fafnir_serve_queries_total [1-9]' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: /metrics missing served queries"; exit 1; }
# The registry-backed families PR 5 added: memory-system counters folded from
# the backend, and latency buckets that resolve sub-millisecond lookups.
grep -q '^fafnir_serve_row_misses_total ' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: /metrics missing telemetry registry families"; exit 1; }
grep -q '^fafnir_serve_pe_reduces_total ' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: /metrics missing PE action counters"; exit 1; }
grep -q 'fafnir_serve_request_seconds_bucket{le="2.5e-05"}' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: latency histogram lacks sub-millisecond buckets"; exit 1; }
# The per-stage latency attribution histograms: every served request feeds
# all six stages, so the backend stage's count must be live after a burst.
grep -Eq 'fafnir_serve_stage_seconds_count\{stage="backend"\} [1-9]' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: stage-latency histograms missing or empty"; exit 1; }
grep -q 'fafnir_serve_stage_seconds_bucket{stage="queue"' "$SMOKE/loadgen.log" \
    || { cat "$SMOKE/loadgen.log"; echo "smoke: queue stage histogram missing"; exit 1; }
# The SLO flight recorder's burn-rate gauges, one per lane.
for lane in high normal low; do
    grep -q "fafnir_slo_burn_rate{lane=\"$lane\"}" "$SMOKE/loadgen.log" \
        || { cat "$SMOKE/loadgen.log"; echo "smoke: /metrics missing burn rate for lane $lane"; exit 1; }
done

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
[ "$SMOKE_RC" -eq 0 ] || { cat "$SMOKE/serve.log"; echo "smoke: server exited $SMOKE_RC on SIGTERM"; exit 1; }
grep -q 'drained cleanly' "$SMOKE/serve.log" \
    || { cat "$SMOKE/serve.log"; echo "smoke: no clean drain line"; exit 1; }
grep 'drained cleanly' "$SMOKE/serve.log"
SERVE_PID=

echo "==> chaos gate: 4-shard fleet survives losing shard 1 mid-burst"
"$SMOKE/fafnir-serve" -addr 127.0.0.1:0 -shards 4 -rows 4096 -linger 500us \
    -faults "shard=1@1;seed=7" > "$SMOKE/fleet.log" 2>&1 &
FLEET_PID=$!

FADDR=
i=0
while [ $i -lt 100 ]; do
    FADDR=$(awk '/^listening on /{print $3; exit}' "$SMOKE/fleet.log" 2>/dev/null || true)
    [ -n "$FADDR" ] && break
    kill -0 "$FLEET_PID" 2>/dev/null || { cat "$SMOKE/fleet.log"; echo "chaos: fleet died on startup"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$FADDR" ] || { cat "$SMOKE/fleet.log"; echo "chaos: fleet never announced its port"; exit 1; }

# -rows matches the fleet's index space (4096 rows x 32 tables).
"$SMOKE/fafnir-loadgen" -url "http://$FADDR" -clients 4 -requests 64 \
    -duration 10s -rows 131072 -dump-metrics > "$SMOKE/chaos.log" 2>&1 \
    || { cat "$SMOKE/chaos.log"; echo "chaos: loadgen failed"; exit 1; }
# Every request must succeed: the dead shard's traffic fails over to its
# replica shard instead of surfacing as 5xx.
grep -q ' 64 ok, 0 overload (503), 0 deadline (504), 0 other$' "$SMOKE/chaos.log" \
    || { cat "$SMOKE/chaos.log"; echo "chaos: requests failed through the dead shard"; exit 1; }
grep -q '^robustness: [1-9][0-9]* degraded' "$SMOKE/chaos.log" \
    || { cat "$SMOKE/chaos.log"; echo "chaos: no degraded responses surfaced to clients"; exit 1; }
grep -q 'fafnir_router_shard_dark_total{shard="1"} [1-9]' "$SMOKE/chaos.log" \
    || { cat "$SMOKE/chaos.log"; echo "chaos: breaker never tripped shard 1 dark"; exit 1; }
grep -q 'fafnir_router_failovers_total{shard="1"} [1-9]' "$SMOKE/chaos.log" \
    || { cat "$SMOKE/chaos.log"; echo "chaos: no failovers recorded for shard 1"; exit 1; }
grep -q '^fafnir_rnet_combines_total [1-9]' "$SMOKE/chaos.log" \
    || { cat "$SMOKE/chaos.log"; echo "chaos: default fleet performed no in-network combines"; exit 1; }

kill -TERM "$FLEET_PID"
CHAOS_RC=0
wait "$FLEET_PID" || CHAOS_RC=$?
[ "$CHAOS_RC" -eq 0 ] || { cat "$SMOKE/fleet.log"; echo "chaos: fleet exited $CHAOS_RC on SIGTERM"; exit 1; }
grep -q 'drained cleanly' "$SMOKE/fleet.log" \
    || { cat "$SMOKE/fleet.log"; echo "chaos: no clean drain line"; exit 1; }
grep 'drained cleanly' "$SMOKE/fleet.log"
FLEET_PID=

# wait_addr LOGFILE PID LABEL: poll LOGFILE for the startup handshake line
# and print the announced host:port.
wait_addr() {
    _addr=
    _i=0
    while [ $_i -lt 100 ]; do
        _addr=$(awk '/^listening on /{print $3; exit}' "$1" 2>/dev/null || true)
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { cat "$1" >&2; echo "$3: server died on startup" >&2; return 1; }
        sleep 0.1
        _i=$((_i + 1))
    done
    [ -n "$_addr" ] || { cat "$1" >&2; echo "$3: server never announced its port" >&2; return 1; }
    echo "$_addr"
}

echo "==> qos gate: overload sheds low-priority traffic first"
# Batch capacity above the queue bound makes every flush linger-bound, and
# the 200ms linger lets the whole burst land inside one window — so admission,
# not service speed, decides who sheds: the low lane caps at 32 queued queries
# (0.5 x 64) while the burst's 25 high-priority requests always fit the full
# bound (25 + 32 < 64), whatever the arrival timing.
"$SMOKE/fafnir-serve" -addr 127.0.0.1:0 -rows 4096 -batch 128 -queue 64 \
    -linger 200ms -cache-mb 16 > "$SMOKE/qos-serve.log" 2>&1 &
QOS_PID=$!
QADDR=$(wait_addr "$SMOKE/qos-serve.log" "$QOS_PID" "qos") || exit 1

# Seeded open-loop burst at 2x the queue bound, 20/80 high/low mix.
"$SMOKE/fafnir-loadgen" -url "http://$QADDR" -qps 8000 -requests 128 \
    -duration 5s -rows 4096 -seed 11 -mix "high=20,low=80" \
    > "$SMOKE/qos.log" 2>&1 \
    || { cat "$SMOKE/qos.log"; echo "qos: loadgen failed"; exit 1; }
grep -Eq 'lane high: [1-9][0-9]* ok, 0 shed \(503\), 0 other' "$SMOKE/qos.log" \
    || { cat "$SMOKE/qos.log"; echo "qos: high-priority traffic was shed (or failed)"; exit 1; }
grep -Eq 'lane low: [0-9]+ ok, [1-9][0-9]* shed \(503\)' "$SMOKE/qos.log" \
    || { cat "$SMOKE/qos.log"; echo "qos: overload at 2x queue capacity shed no low-priority traffic"; exit 1; }
grep -Eq 'server: shed high=0 normal=0 low=[1-9]' "$SMOKE/qos.log" \
    || { cat "$SMOKE/qos.log"; echo "qos: shed_total counters disagree with the client's view"; exit 1; }
grep -E 'lane (high|low):|server: shed' "$SMOKE/qos.log"

kill -TERM "$QOS_PID"
QOS_RC=0
wait "$QOS_PID" || QOS_RC=$?
[ "$QOS_RC" -eq 0 ] || { cat "$SMOKE/qos-serve.log"; echo "qos: server exited $QOS_RC on SIGTERM"; exit 1; }
QOS_PID=

echo "==> cache gate: hot-embedding cache cuts backend reads per query"
run_cache_pass() { # run_cache_pass LABEL EXTRA_SERVE_FLAGS...
    _label=$1; shift
    "$SMOKE/fafnir-serve" -addr 127.0.0.1:0 -rows 4096 -linger 500us "$@" \
        > "$SMOKE/cache-$_label-serve.log" 2>&1 &
    CACHE_PID=$!
    _caddr=$(wait_addr "$SMOKE/cache-$_label-serve.log" "$CACHE_PID" "cache($_label)") || return 1
    "$SMOKE/fafnir-loadgen" -url "http://$_caddr" -clients 2 -requests 256 \
        -duration 20s -rows 4096 -zipf 1.3 -seed 3 -dump-metrics \
        > "$SMOKE/cache-$_label.log" 2>&1 \
        || { cat "$SMOKE/cache-$_label.log"; echo "cache($_label): loadgen failed"; return 1; }
    kill -TERM "$CACHE_PID"
    wait "$CACHE_PID" || { cat "$SMOKE/cache-$_label-serve.log"; echo "cache($_label): bad exit"; return 1; }
    CACHE_PID=
}
run_cache_pass off || exit 1
run_cache_pass on -cache-mb 64 || exit 1
awk '
FILENAME ~ /cache-off/ && /^fafnir_serve_dram_reads_total /  { offreads = $2 }
FILENAME ~ /cache-off/ && /^fafnir_serve_queries_total /     { offq = $2 }
FILENAME ~ /cache-on/  && /^fafnir_serve_dram_reads_total /  { onreads = $2 }
FILENAME ~ /cache-on/  && /^fafnir_serve_queries_total /     { onq = $2 }
FILENAME ~ /cache-on/  && /^fafnir_cache_hits_total /        { hits = $2 }
FILENAME ~ /cache-on/  && /^fafnir_cache_misses_total /      { misses = $2 }
END {
    if (!offq || !onq) { print "cache gate: missing metrics"; exit 1 }
    off = offreads / offq; on = onreads / onq
    ratio = hits / (hits + misses)
    printf "cache gate: %.2f reads/query off, %.2f on (%.0f%% saved), hit ratio %.2f\n", \
        off, on, 100 * (1 - on / off), ratio
    if (on > 0.75 * off) { print "cache gate: reads/query reduction below 25%"; exit 1 }
    if (ratio < 0.5)     { print "cache gate: hit ratio below 0.5"; exit 1 }
}' "$SMOKE/cache-off.log" "$SMOKE/cache-on.log" \
    || { echo "cache gate failed"; exit 1; }

echo "OK: all checks passed"
