#!/bin/sh
# Full pre-commit gate: formatting, vet, build, race-enabled tests, and
# a short allocation-aware pass over the hot-path micro-benchmarks.
# Equivalent to `make check` for environments without make.
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

# digest_test.go builds only without the race detector, so the race run
# above skips the committed Analysis digests.
echo "== Analysis digests =="
go test -count=1 -run '^TestAnalysisDigests$' .

echo "== chaos soak (seeded fault-injection + cancellation + overload + batch + store + cluster + cleaner + fingerprint + stream sweep) =="
go test -race -count=2 \
    -run 'Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Migrate|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle|Priority' \
    . ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

echo "== short benchmarks =="
go test -run='^$' -bench='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|PrioritySchedule|StreamFanout' \
    -benchtime=1x -benchmem ./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

echo "check OK"
