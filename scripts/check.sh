#!/bin/sh
# Full pre-commit gate: formatting, vet, build, race-enabled tests, the
# Analysis digests, race and chaos soaks, a fuzz smoke of the store's
# run-file reader, the CSV loader, the order statistics and the client's SSE
# parser, and a short allocation-aware pass over the hot-path
# micro-benchmarks.
# This script is the gate's one definition: `make check` and CI run
# every step, and `make digests`, `make chaos` and `make bench` run one.
# The bench step's sweep is scripts/sweep.sh, which scripts/bench.sh
# runs too.
#
# Usage: scripts/check.sh [step...]
#
# With no step it runs every step of STEPS, in that order, and ends with
# "check OK".
set -eu

STEPS="gofmt vet build examples race digests chaos soak fuzz bench"

cd "$(dirname "$0")/.."
. ./scripts/sweep.sh

step_gofmt() {
    echo "== gofmt =="
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

step_vet() {
    echo "== go vet =="
    go vet ./...
    # perfbench is its own module, so the root ./... never reaches it.
    (cd perfbench && go vet ./...)
}

step_build() {
    echo "== go build =="
    go build ./...
}

step_examples() {
    echo "== client library and examples =="
    go build ./pkg/client/ ./examples/...
}

step_race() {
    echo "== go test -race =="
    go test -race ./...
}

# The digest tests build only without the race detector, so the race
# step skips the committed Analysis digests.
step_digests() {
    echo "== Analysis digests =="
    go test -count=1 -run '^TestAnalysisDigests$' .
    go test -count=1 -run '^TestServedAnalysisDigest$' ./internal/serve/
}

# Seeded chaos soak, run twice under the race detector: the
# fault-injection sweep (failed runs, corrupt series, broken stores at
# 0%/5%/20%), the fault unit tests, the serving layer's
# overload/shutdown/drain paths and batch endpoint (per-job error
# isolation under injected faults), the sharded store's
# crash/eviction/corruption paths, the cluster plane's node-level chaos
# (lease failover, requeue, partition, seeded worker kills), the Cleaner
# seam (per-cleaner cache-key separation, Bayesian determinism across
# worker counts), and the fingerprint subsystem (embedding determinism,
# index rebuilds, classify caching across index versions).
# Deterministic: a failure here is a real regression, not flakiness.
step_chaos() {
    echo "== chaos soak (seeded fault-injection + cancellation + overload + batch + store + cluster + cleaner + fingerprint + stream sweep) =="
    go test -race -count=2 \
        -run 'Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle' \
        . ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/
}

step_soak() {
    # The fingerprint index is written by every persisting job and
    # reclustered by whichever reader comes next, and the daemon's sink
    # pairs each store write with its upsert; soak that shared state.
    echo "== index race soak =="
    go test -race -count=10 -run '^TestIndexConcurrent' ./internal/fingerprint/
    go test -race -count=10 -run '^TestIndexingSink' ./internal/serve/

    # Every SGBRT fit runs its level scans and F updates on one resident
    # helper team, thousands of fan-outs per fit; soak the team's job
    # publication, wake-up and shutdown, and the fits that run on it.
    echo "== team race soak =="
    go test -race -count=10 -run '^TestTeam' ./internal/parallel/
    go test -race -count=10 -run '^(TestFitOnTeamMatchesSerial|TestFitParallelMatchesSerial|TestFitCtxCancelStopsTeam|TestBestSplitTieBreakFeature)$' ./internal/sgbrt/
}

# The store's run-file reader takes whatever bytes the disk holds,
# LoadCSV whatever file a user hands it, and the client's SSE parser
# whatever a server or proxy sends; give each native fuzzer a short run
# beyond its committed seed corpus. A short minimisation keeps the run
# exploring; a failing input is still written under testdata/fuzz. The
# order-statistics fuzzer checks the cleaners' and the fingerprint's
# selection against sorting.
step_fuzz() {
    echo "== fuzz smoke (store run-file reader, CSV loader, order statistics, SSE parser) =="
    go test -run='^$' -fuzz='^FuzzShardRunFile$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store/
    go test -run='^$' -fuzz='^FuzzLoadCSV$' -fuzztime=10s -fuzzminimizetime=1s .
    go test -run='^$' -fuzz='^FuzzOrderStatistics$' -fuzztime=10s -fuzzminimizetime=1s ./internal/stats/
    go test -run='^$' -fuzz='^FuzzReadEvent$' -fuzztime=10s -fuzzminimizetime=1s ./pkg/client/
}

step_bench() {
    echo "== short benchmarks =="
    # shellcheck disable=SC2086 # SWEEP_PKGS is a deliberate word list
    go test -run='^$' -bench="$SWEEP_PATTERN" \
        -benchtime=1x -benchmem $SWEEP_PKGS
}

if [ $# -eq 0 ]; then
    for step in $STEPS; do
        "step_$step"
    done
    echo "check OK"
    exit 0
fi
for step in "$@"; do
    case " $STEPS " in
    *" $step "*) ;;
    *)
        echo "check.sh: unknown step \"$step\"; steps: $STEPS" >&2
        exit 2
        ;;
    esac
done
for step in "$@"; do
    "step_$step"
done
