#!/bin/sh
# Run the hot-path micro-benchmarks and write a machine-readable report.
#
# Usage: scripts/bench.sh [count]
#
# Runs the same sweep as `make bench`, but at the default -benchtime
# (each entry averages at least a second of iterations, where `make
# bench` runs one) and with -count=<count> (default 3), and writes
# BENCH_<n>.json in the repo root, where <n> is the first
# unused number — earlier reports are never overwritten, so a series of
# runs across commits forms a comparable history. Each benchmark
# contributes one result entry per repetition; consumers aggregate
# (min/median) as they see fit.
#
# Report shape:
#   {
#     "commit": "<short hash, with -dirty for uncommitted changes>",
#     "count": 3,
#     "results": [
#       {"name": "BenchmarkFit", "ns_per_op": 123, "bytes_per_op": 45,
#        "allocs_per_op": 6},
#       {"name": "BenchmarkEIR", "ns_per_op": 456, ...,
#        "metrics": {"reused-trees/op": 852}},
#       ...
#     ]
#   }
#
# "metrics" holds whatever else a benchmark reports per op through
# b.ReportMetric, by unit.
#
# BENCH_PATTERN and BENCH_PKGS override the benchmark regex and the
# package list.
set -eu

cd "$(dirname "$0")/.."

COUNT="${1:-3}"
PATTERN="${BENCH_PATTERN:-Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|IndexUpsert|StreamFanout|Collect}"
PKGS="${BENCH_PKGS:-./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/collector/}"

n=1
while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
done
out="BENCH_${n}.json"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086 # PKGS is a deliberate word list
go test -run='^$' -bench="$PATTERN" -benchmem -count="$COUNT" $PKGS | tee "$raw"

awk -v count="$COUNT" \
    -v commit="$(git describe --always --dirty 2>/dev/null || echo unknown)" '
BEGIN {
    printf "{\n  \"commit\": \"%s\",\n  \"count\": %d,\n  \"results\": [\n", commit, count
    first = 1
}
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")          ns     = $(i - 1)
        else if ($i == "B/op")      bytes  = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
        else if ($i ~ /\/op$/)      extra  = extra (extra == "" ? "" : ", ") "\"" $i "\": " $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (extra != "")  printf ", \"metrics\": {%s}", extra
    printf "}"
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
