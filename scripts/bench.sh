#!/bin/sh
# Benchmark-regression harness: runs the hot-path benchmark suite with
# -benchmem, converts the text output to JSON via cmd/benchjson, and
# writes BENCH_<date>.json. If a previous BENCH_*.json exists (or
# BENCH_PREV points at one), the new document embeds it as "baseline"
# and annotates every shared benchmark with delta_ns_pct, so each
# committed file records a before/after pair and the repository
# accumulates a perf trajectory PR by PR.
#
# Environment knobs:
#   BENCH       benchmark regexp   (default: the hot-path suite)
#   BENCH_COUNT -count             (default 3; benchjson keeps the best)
#   BENCH_TIME  -benchtime         (default 1s)
#   BENCH_PREV  baseline document  (default: newest existing BENCH_*.json)
#   BENCH_OUT   output file        (default: BENCH_<yyyymmdd>.json)
set -eu

cd "$(dirname "$0")/.."

PATTERN="${BENCH:-BenchmarkForwardModulo|BenchmarkForwardDtree|BenchmarkSchedulerSteadyState|BenchmarkHeaderCodec|BenchmarkHeaderMarshalPooled|BenchmarkSwitchPipeline|BenchmarkCRTEncode|BenchmarkReinstallAfterFailure|BenchmarkShortestPath|BenchmarkEncodeRoute|BenchmarkReduceBatch|BenchmarkFig5PacketsPerSec|BenchmarkShardScaling|BenchmarkScale1kSwitch|BenchmarkWorldConstruction1kSwitch|BenchmarkVerifySweepFattree4|BenchmarkAnalyzeNIPPathFailure}"
COUNT="${BENCH_COUNT:-3}"
BENCHTIME="${BENCH_TIME:-1s}"
OUT="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"

PREV="${BENCH_PREV:-}"
if [ -z "$PREV" ]; then
    # Newest committed run that is not the file we are about to write.
    PREV="$(ls BENCH_*.json 2>/dev/null | grep -vx "$OUT" | sort | tail -1 || true)"
fi

label="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> go build ./cmd/benchjson"
go build -o "$tmp/benchjson" ./cmd/benchjson

echo "==> go test -bench '$PATTERN' -benchmem -count $COUNT -benchtime $BENCHTIME"
go test -run '^$' -bench "$PATTERN" -benchmem \
    -count "$COUNT" -benchtime "$BENCHTIME" . | tee "$tmp/bench.txt"

if [ -n "$PREV" ] && [ -f "$PREV" ]; then
    echo "==> benchjson -o $OUT (baseline: $PREV)"
    "$tmp/benchjson" -label "$label" -prev "$PREV" -o "$OUT" < "$tmp/bench.txt"
else
    echo "==> benchjson -o $OUT (no baseline found)"
    "$tmp/benchjson" -label "$label" -o "$OUT" < "$tmp/bench.txt"
fi
