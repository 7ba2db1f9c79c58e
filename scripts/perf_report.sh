#!/usr/bin/env bash
# Regenerates the raw measurements behind BENCH_PR1/PR2/PR3.json:
#   1. engine/crypto micro-benchmarks (ns/op), including the hash layer
#      (fast-path vs reference MAC/HashNode, per-walk vs batched BMT),
#   2. data-plane micro-benchmarks (paged table vs map, batched vs scalar
#      replay, AES-NI vs T-table pad generation, memoized sweep),
#   3. serial vs parallel table4 sweep wall-clock, with an output
#      byte-identity check across parallelism levels,
#   4. memoized vs unmemoized -exp all wall-clock, with a byte-identity
#      check between the two,
#   5. multi-core sharded stepping (BENCH_PR7.json): per-core-op cost as
#      the socket scales, the scheme x {1,8,64,256}-core battery grid
#      wall-clock, and a byte-identity check of the grid between a serial
#      run and a parallel run,
#   6. store hot path + persistent grid cache (BENCH_PR8.json):
#      BenchmarkEngineStore medians, and cold vs warm -memodir wall-clock
#      with byte-identity checks.
#
# Run on an idle machine; results land in /tmp/secpb-perf/. The JSON in
# BENCH_PR1.json is assembled by hand from these outputs together with a
# baseline run of the same benchmarks at the comparison commit (use a
# temporary `git worktree add` of the baseline so both trees are measured
# back-to-back under identical machine conditions).
set -euo pipefail
cd "$(dirname "$0")/.."

out=/tmp/secpb-perf
mkdir -p "$out"

echo "== micro-benchmarks =="
go test -bench 'BenchmarkEngineStore|BenchmarkEngineLoad|BenchmarkOTPGen|BenchmarkTable4Grid|BenchmarkEngineBBB|BenchmarkEngineCOBCM|BenchmarkEngineNoGap|BenchmarkEngineSP' \
    -benchtime 2s -run '^$' . | tee "$out/bench.txt"

echo "== hash-layer micro-benchmarks =="
go test -bench 'BenchmarkMAC$|BenchmarkMACReference$|BenchmarkHashNode$|BenchmarkHashNodeReference$|BenchmarkBMTUpdate$|BenchmarkBMTBatchDrain$' \
    -benchmem -benchtime 2s -run '^$' . | tee "$out/bench_hash.txt"

echo "== data-plane micro-benchmarks =="
go test -bench 'BenchmarkOTPGenReference$|BenchmarkPTableVsMap|BenchmarkRunBatchVsRun' \
    -benchmem -benchtime 2s -run '^$' . | tee "$out/bench_dataplane.txt"
go test -bench 'BenchmarkExpAllMemoized' -benchtime 1x -run '^$' . \
    | tee "$out/bench_memo.txt"

echo "== table4 sweep: serial vs parallel =="
go build -o "$out/secpb-bench" ./cmd/secpb-bench
"$out/secpb-bench" -exp table4 -ops 60000 -parallel 1 \
    -timing "$out/timing_serial.json" > "$out/table4_serial.txt"
"$out/secpb-bench" -exp table4 -ops 60000 -parallel 0 \
    -timing "$out/timing_parallel.json" > "$out/table4_parallel.txt"

if diff -q "$out/table4_serial.txt" "$out/table4_parallel.txt" > /dev/null; then
    echo "output identical across parallelism levels"
else
    echo "ERROR: parallel output differs from serial" >&2
    exit 1
fi
cat "$out/timing_serial.json" "$out/timing_parallel.json"

echo "== exp all: memoized vs unmemoized =="
time "$out/secpb-bench" -exp all -ops 20000 -memo=false \
    > "$out/all_nomemo.txt" 2>&1
time "$out/secpb-bench" -exp all -ops 20000 \
    -timing "$out/timing_memo.json" > "$out/all_memo.txt" 2>&1

if diff -q "$out/all_nomemo.txt" "$out/all_memo.txt" > /dev/null; then
    echo "output identical with and without the cell memo"
else
    echo "ERROR: memoized output differs from unmemoized" >&2
    exit 1
fi
cat "$out/timing_memo.json"

echo "== multi-core sharded stepping =="
# Per-core-op cost as the socket scales: each core steps its own
# memory-channel shard between drain-epoch barriers, so total work grows
# linearly with the core count and the ns/op column divided by the core
# count exposes the sharding overhead. On 1-CPU hosts the parallel core
# stepping serializes (GOMAXPROCS=1), so this measures the serial epoch
# scheduler; byte-identity across worker counts is gated by
# TestSystemSerialParallelIdentity (forced GOMAXPROCS(4), in ci.sh under
# -race). Record GOMAXPROCS next to these numbers and re-run on a
# multi-core host for the wall-clock scaling curve in BENCH_PR7.json.
go test -bench 'BenchmarkSystemStep' -benchtime 2s -run '^$' \
    ./internal/engine/ | tee "$out/bench_system.txt"

# The battery-sizing grid end to end at paper scale (schemes x
# {1,8,64,256} cores), timed, then byte-diffed between a serial
# unmemoized run and a parallel memoized run.
"$out/secpb-bench" -exp multicore -ops 5000 -cores 1,8,64,256 -json \
    -parallel 1 -memo=false -timing "$out/timing_multicore.json" \
    > "$out/multicore_serial.json" 2>/dev/null
"$out/secpb-bench" -exp multicore -ops 5000 -cores 1,8,64,256 -json \
    -parallel 8 \
    > "$out/multicore_parallel.json" 2>/dev/null
if diff -q "$out/multicore_serial.json" "$out/multicore_parallel.json" > /dev/null; then
    echo "multicore battery grid identical: serial vs parallel"
else
    echo "ERROR: multicore grid differs between serial and parallel runs" >&2
    exit 1
fi
cat "$out/timing_multicore.json"

echo "== store hot path + persistent grid cache =="
# BenchmarkEngineStore, median of 5 x 2s runs. Noise on a 1-vCPU host
# is +/-15% — take the median, never a single run.
go test -bench 'BenchmarkEngineStore$' -benchmem -benchtime 2s -count 5 \
    -run '^$' . | tee "$out/bench_store.txt"

# The persistent cache: cold populates, warm must replay from disk
# byte-identically, and a byte flipped into every record must be
# rejected and recomputed.
rm -rf "$out/memod"
time "$out/secpb-bench" -exp all -ops 20000 -memodir "$out/memod" \
    -timing "$out/timing_cold.json" > "$out/all_cold.txt" 2>/dev/null
time "$out/secpb-bench" -exp all -ops 20000 -memodir "$out/memod" \
    -timing "$out/timing_warm.json" > "$out/all_warm.txt" 2>/dev/null
if ! diff -q "$out/all_cold.txt" "$out/all_warm.txt" > /dev/null; then
    echo "ERROR: warm -memodir run differs from cold" >&2
    exit 1
fi
for rec in "$out/memod"/*.spbc; do
    printf '\xff' | dd of="$rec" bs=1 seek=20 count=1 conv=notrunc status=none
done
"$out/secpb-bench" -exp all -ops 20000 -memodir "$out/memod" \
    > "$out/all_corrupt.txt" 2>/dev/null
if ! diff -q "$out/all_cold.txt" "$out/all_corrupt.txt" > /dev/null; then
    echo "ERROR: output differs after cache corruption (stale record trusted?)" >&2
    exit 1
fi
echo "exp all identical: cold vs warm vs corrupted -memodir"
cat "$out/timing_cold.json" "$out/timing_warm.json"
