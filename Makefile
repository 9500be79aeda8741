GO ?= go
BENCH_COUNT ?= 3

.PHONY: check fmt vet build test race digests index-race team-race fuzz-smoke bench bench-json chaos

check: fmt vet build race digests index-race team-race fuzz-smoke bench chaos

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	(cd perfbench && $(GO) vet ./...)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The committed Analysis digests (digest_test.go and
# internal/serve/digest_test.go). The files build only without the race
# detector, so the race run above skips them.
digests:
	$(GO) test -count=1 -run '^TestAnalysisDigests$$' .
	$(GO) test -count=1 -run '^TestServedAnalysisDigest$$' ./internal/serve/

# The fingerprint index is written by every persisting job and
# reclustered by whichever reader comes next, and the daemon's sink
# pairs each store write with its upsert; soak that shared state.
index-race:
	$(GO) test -race -count=10 -run '^TestIndexConcurrent' ./internal/fingerprint/
	$(GO) test -race -count=10 -run '^TestIndexingSink' ./internal/serve/

# Every SGBRT fit runs its level scans and F updates on one resident
# helper team, thousands of fan-outs per fit; soak the team's job
# publication, wake-up and shutdown, and the fits that run on it.
team-race:
	$(GO) test -race -count=10 -run '^TestTeam' ./internal/parallel/
	$(GO) test -race -count=10 -run '^(TestFitOnTeamMatchesSerial|TestFitParallelMatchesSerial|TestFitCtxCancelStopsTeam|TestBestSplitTieBreakFeature)$$' ./internal/sgbrt/

# Seeded chaos soak: the fault-injection sweep (failed runs, corrupt
# series, broken stores at 0%/5%/20%), the fault unit tests, the
# serving layer's overload/shutdown/drain paths and batch endpoint
# (per-job error isolation under injected faults),
# the sharded store's crash/eviction/migration paths, the cluster
# plane's node-level chaos (lease failover, requeue, partition, seeded
# worker kills), the Cleaner seam (registry, per-cleaner cache-key
# separation, Bayesian determinism across worker counts), and the
# fingerprint subsystem (embedding determinism, index rebuilds,
# classify caching across index versions), run twice under the race
# detector. Deterministic — a failure here is a real regression, not
# flakiness.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Migrate|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle|Priority' . ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

# The store's on-disk readers take whatever bytes the disk holds,
# LoadCSV whatever file a user hands it, and the client's SSE parser
# whatever a server or proxy sends; give each native fuzzer a short run
# beyond its committed seed corpus. A short minimisation keeps the run
# exploring; a failing input is still written under testdata/fuzz. The
# order-statistics fuzzer checks the cleaners' and the fingerprint's
# selection against sorting.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzShardRunFile$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzMigrateShardFile$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadCSV$$' -fuzztime=10s -fuzzminimizetime=1s .
	$(GO) test -run='^$$' -fuzz='^FuzzOrderStatistics$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/stats/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEvent$$' -fuzztime=10s -fuzzminimizetime=1s ./pkg/client/

# Short allocation-aware sweep over the hot-path micro-benchmarks.
bench:
	$(GO) test -run=^$$ -bench='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|IndexUpsert|StreamFanout|Collect' -benchtime=1x -benchmem ./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/collector/

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
