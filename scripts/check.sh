#!/bin/sh
# Full pre-commit gate: formatting, vet, build, race-enabled tests, the
# Analysis digests, race and chaos soaks, a fuzz smoke of the store's
# run-file reader, the CSV loader, the order statistics and the client's SSE
# parser, and a short allocation-aware pass over the hot-path
# micro-benchmarks.
# This script is the gate's one definition: `make check` and CI run it.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# perfbench is its own module, so the root ./... never reaches it.
(cd perfbench && go vet ./...)

echo "== go build =="
go build ./...

echo "== client library and examples =="
go build ./pkg/client/ ./examples/...

echo "== go test -race =="
go test -race ./...

# The digest tests build only without the race detector, so the race
# run above skips the committed Analysis digests.
echo "== Analysis digests =="
go test -count=1 -run '^TestAnalysisDigests$' .
go test -count=1 -run '^TestServedAnalysisDigest$' ./internal/serve/

echo "== chaos soak (seeded fault-injection + cancellation + overload + batch + store + cluster + cleaner + fingerprint + stream sweep) =="
go test -race -count=2 \
    -run 'Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle' \
    . ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

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

# The store's run-file reader takes whatever bytes the disk holds,
# LoadCSV whatever file a user hands it, and the client's SSE parser
# whatever a server or proxy sends; give each native fuzzer a short run
# beyond its committed seed corpus. A short minimisation keeps the run
# exploring; a failing input is still written under testdata/fuzz. The
# order-statistics fuzzer checks the cleaners' and the fingerprint's
# selection against sorting.
echo "== fuzz smoke (store run-file reader, CSV loader, order statistics, SSE parser) =="
go test -run='^$' -fuzz='^FuzzShardRunFile$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store/
go test -run='^$' -fuzz='^FuzzLoadCSV$' -fuzztime=10s -fuzzminimizetime=1s .
go test -run='^$' -fuzz='^FuzzOrderStatistics$' -fuzztime=10s -fuzzminimizetime=1s ./internal/stats/
go test -run='^$' -fuzz='^FuzzReadEvent$' -fuzztime=10s -fuzzminimizetime=1s ./pkg/client/

echo "== short benchmarks =="
go test -run='^$' -bench='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|IndexUpsert|StreamFanout|Collect' \
    -benchtime=1x -benchmem ./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/collector/

echo "check OK"
