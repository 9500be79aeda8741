GO ?= go
BENCH_COUNT ?= 3

.PHONY: check test digests chaos bench bench-json

# The full pre-commit gate. scripts/check.sh is its one definition, run
# here and in CI alike.
check:
	./scripts/check.sh

test:
	$(GO) test ./...

# The committed Analysis digests (digest_test.go and
# internal/serve/digest_test.go). The files build only without the race
# detector, so a race run skips them.
digests:
	$(GO) test -count=1 -run '^TestAnalysisDigests$$' .
	$(GO) test -count=1 -run '^TestServedAnalysisDigest$$' ./internal/serve/

# Seeded chaos soak: the fault-injection sweep (failed runs, corrupt
# series, broken stores at 0%/5%/20%), the fault unit tests, the
# serving layer's overload/shutdown/drain paths and batch endpoint
# (per-job error isolation under injected faults),
# the sharded store's crash/eviction/corruption paths, the cluster
# plane's node-level chaos (lease failover, requeue, partition, seeded
# worker kills), the Cleaner seam (registry, per-cleaner cache-key
# separation, Bayesian determinism across worker counts), and the
# fingerprint subsystem (embedding determinism, index rebuilds,
# classify caching across index versions), run twice under the race
# detector. Deterministic — a failure here is a real regression, not
# flakiness.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Retry|Injection|Transient|Permanent|Corruption|Sink|KeyedRNG|Cancel|Overload|Shutdown|Drain|Batch|Schedule|Shard|Evict|Cluster|Lease|Failover|Partition|Cleaner|Bayes|Classify|Fingerprint|Index|Stream|Handle' . ./internal/fault/ ./internal/serve/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/

# Short allocation-aware sweep over the hot-path micro-benchmarks.
bench:
	$(GO) test -run=^$$ -bench='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|IndexUpsert|StreamFanout|Collect' -benchtime=1x -benchmem ./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/collector/

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
