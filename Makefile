GO ?= go
BENCH_COUNT ?= 3

.PHONY: check test digests chaos bench bench-json

# The full pre-commit gate. scripts/check.sh is its one definition, run
# here and in CI alike.
check:
	./scripts/check.sh

test:
	$(GO) test ./...

# Single steps of the gate: the committed Analysis digests, the seeded
# chaos soak and the short allocation-aware sweep over the hot-path
# micro-benchmarks. scripts/check.sh defines each.
digests chaos bench:
	./scripts/check.sh $@

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
