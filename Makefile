GO ?= go
BENCH_COUNT ?= 3

.PHONY: check fmt vet build test race digests bench bench-json chaos

check: fmt vet build race digests bench chaos

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

# The committed Analysis digests (digest_test.go). The file builds only
# without the race detector, so the race run above skips it.
digests:
	$(GO) test -count=1 -run '^TestAnalysisDigests$$' .

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

# Short allocation-aware sweep over the hot-path micro-benchmarks.
bench:
	$(GO) test -run=^$$ -bench='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|PrioritySchedule|StreamFanout' -benchtime=1x -benchmem ./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
