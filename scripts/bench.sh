#!/usr/bin/env bash
# bench.sh — run the repository's headline performance benchmarks and
# record the series into BENCH_PR10.json.
#
# Usage:
#   scripts/bench.sh [stage] [count]
#
#   stage  JSON stage to record under: "baseline" or "after" (default: after)
#   count  -count repetitions per benchmark (default: 5)
#
# The recorded benchmarks are the end-to-end headline reproduction, the
# Fig. 10 data-phase comparisons, the scenario-engine paths (block
# fading, Gauss–Markov drift, population churn), the coherence-
# windowed fast-mobility path, the per-tag-windowed mixed-mobility
# path, the warehouse sweep-probe
# path (BenchmarkWarehouseSweepProbe: streaming arrivals + finite
# dwell + analytic re-identification; its allocs/op and live-heap
# metrics back the PR-10 memory model in PERFORMANCE.md). CI reruns the
# same set and gates it — tight on the classic paths, looser on the
# scenario paths (see scripts/benchguard's -bench/-override flags and
# .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="${1:-after}"
COUNT="${2:-5}"
OUT="BENCH_PR10.json"
BENCHES='BenchmarkHeadline_Overall$|BenchmarkFig10_TransferTime_K16$|BenchmarkFig10_TransferTime_K8$|BenchmarkScenario_BlockFading_K8$|BenchmarkScenario_GaussMarkov_K8$|BenchmarkScenario_FastMobility_K8$|BenchmarkScenario_MixedMobility_K8$|BenchmarkScenario_PopulationChurn$|BenchmarkWarehouseSweepProbe$'

go test -run '^$' -bench "$BENCHES" -benchmem -count="$COUNT" -timeout 60m . |
    go run ./scripts/benchjson -out "$OUT" -stage "$STAGE"
