#!/usr/bin/env sh
# bench.sh — run the tracked benchmark set and emit machine-readable results.
#
# Usage:
#   scripts/bench.sh                 # writes BENCH.json in the repo root
#   BENCH_MULTICORE=1 scripts/bench.sh
#                                    # all-cores run, writes BENCH.multicore.json
#   BENCH_PATTERN=. BENCH_TIME=1x BENCH_COUNT=3 \
#   scripts/bench.sh out.json        # CI smoke: every benchmark, 3 repetitions
#
# The default mode pins GOMAXPROCS=1 so the committed BENCH.json medians are
# comparable across machines with different core counts; BENCH_MULTICORE=1
# lifts the pin (all cores) and defaults the output to BENCH.multicore.json,
# the baseline for the workers=N scaling numbers. Multicore runs are refused
# on single-core machines (override: BENCH_ALLOW_SINGLE_CORE=1, which stamps
# a warning into the report) — a "multicore" file recorded serially is a lie,
# which is why no BENCH.multicore.json is committed: regenerate it locally on
# real multi-core hardware when scaling numbers are needed. benchjson tags
# every report with the GOMAXPROCS it ran under and the machine's core count,
# so the two baselines are distinguishable by their own contents.
#
# The default set is the perf-tracked benchmarks reported in README
# "Performance": the per-decision LA=2 planner (full vs incremental
# speculative refits) and LA=3 planner on the 384-point Tensorflow space,
# each across workers 1/2/4/8 (these live in internal/core, where one op is
# exactly one planning decision, so b.N >= 3 at default benchtime), the
# ensemble fit+full-space-sweep microbenchmark, the incremental refit
# microbenchmark (clone+update of one sample through a warm ensemble, the
# per-outcome unit of the lookahead simulation), the large-space planner
# (sampled strategy over 15k-246k-point streaming spaces), and the stochastic
# serving-cluster campaign (LA=2 incremental on the simulated LLM inference
# cluster), the checkpointing path (snapshot serialization and
# campaign restore, which fault-tolerant campaigns pay every trial), and the
# multi-campaign batch (8 concurrent distinct-seed Tensorflow campaigns
# through one MultiRunner, gated on ns/campaign). Every benchmark
# runs BENCH_COUNT times (default 3) and benchjson records the per-metric
# MEDIAN — a single planner iteration is too noisy to detect real
# regressions, and the medians (together with allocs/op on the planner
# benchmarks) are what the CI bench-regression gate compares against the
# committed baseline. BENCH.json is that baseline; regenerate it on
# comparable idle hardware before updating it.
set -eu

cd "$(dirname "$0")/.."

MULTICORE_FLAG=""
if [ "${BENCH_MULTICORE:-0}" = "1" ]; then
	OUT="${1:-BENCH.multicore.json}"
	# A "multicore" baseline recorded on a single-core machine is worse than
	# none: its parallel-scaling numbers are indistinguishable from the
	# GOMAXPROCS=1 baseline but carry a name that claims otherwise. Refuse
	# outright unless explicitly forced, in which case benchjson stamps a
	# warning into the report itself.
	CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
	if [ "$CORES" -le 1 ]; then
		if [ "${BENCH_ALLOW_SINGLE_CORE:-0}" != "1" ]; then
			echo "bench.sh: BENCH_MULTICORE=1 on a single-core machine records a meaningless parallel baseline; rerun on a multi-core box, or set BENCH_ALLOW_SINGLE_CORE=1 to force (the report will carry a warning)" >&2
			exit 1
		fi
		echo "bench.sh: WARNING: multicore run forced on a single-core machine; the report will be annotated" >&2
	fi
	MULTICORE_FLAG="-multicore"
else
	OUT="${1:-BENCH.json}"
	GOMAXPROCS=1
	export GOMAXPROCS
fi
PATTERN="${BENCH_PATTERN:-BenchmarkPlannerLA2Tensorflow|BenchmarkPlannerLA3Tensorflow|BenchmarkEnsembleFitPredict|BenchmarkEnsembleRefitIncremental|BenchmarkFullSpaceSweep|BenchmarkLargeSpaceDecision|BenchmarkServesimDecision|BenchmarkSnapshotRestore|BenchmarkMultiCampaignThroughput}"
BENCHTIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-3}"

# Capture the bench output before converting it: piping go test straight into
# benchjson would swallow its exit status under POSIX sh (no pipefail), and a
# broken benchmark must fail this script (CI relies on that).
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
if ! go test -run 'XXX' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" . ./internal/core > "$RAW"; then
	cat "$RAW" >&2
	echo "bench.sh: go test -bench failed" >&2
	exit 1
fi
cat "$RAW"
go run ./cmd/benchjson $MULTICORE_FLAG -out "$OUT" < "$RAW"
echo "wrote $OUT"
