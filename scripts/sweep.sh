# The hot-path micro-benchmark sweep, sourced by scripts/check.sh, whose
# bench step runs each benchmark once, and by scripts/bench.sh, which
# runs them at the default -benchtime.
# shellcheck shell=sh disable=SC2034 # the sourcing scripts read both
SWEEP_PATTERN='Fit|BuildTreeOrdered|PredictAll|EIR|RankPairs|Distance|Store|Ring|Heartbeat|RegistryPick|BayesClean|ThresholdKNNClean|Embed|IndexLookup|IndexUpsert|StreamFanout|Collect'
SWEEP_PKGS='./internal/sgbrt/ ./internal/rank/ ./internal/interact/ ./internal/dtw/ ./internal/store/ ./internal/cluster/ ./internal/clean/ ./internal/fingerprint/ ./internal/stream/ ./internal/collector/'
