#!/usr/bin/env bash
# Runs every bench program with JSON output and aggregates the results into
# one file, establishing/refreshing the repo's perf baseline.
#
#   scripts/run_benches.sh [BUILD_DIR] [OUT_JSON]
#
# Defaults: BUILD_DIR=build, OUT_JSON=BENCH_seed.json (repo root). The benches
# print their paper-figure tables to stdout before running google-benchmark,
# so JSON goes to a side file via --benchmark_out while the console output is
# kept in BUILD_DIR/bench_results/<name>.log.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
OUT_JSON="${2:-${REPO_ROOT}/BENCH_seed.json}"

BENCHES=(
  bench_ablation_ctrl_freq
  bench_ablation_dispatch_order
  bench_ablation_period
  bench_ablation_pid
  bench_ablation_reclaim
  bench_ablation_squish
  bench_baseline_comparison
  bench_benefits_comparison
  bench_cluster
  bench_controller_scale
  bench_dispatch_scale
  bench_fig5_controller_overhead
  bench_fig6_responsiveness
  bench_fig7_load
  bench_fig8_dispatch_overhead
  bench_smp_scale
  bench_thread_slabs
  bench_web_farm
)

if [[ ! -x "${BUILD_DIR}/tools/bench_aggregate" ]]; then
  echo "error: ${BUILD_DIR}/tools/bench_aggregate not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

RESULTS_DIR="${BUILD_DIR}/bench_results"
mkdir -p "${RESULTS_DIR}"

AGGREGATE_ARGS=()
for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found (incomplete build?)" >&2
    exit 1
  fi
  json="${RESULTS_DIR}/${bench}.json"
  log="${RESULTS_DIR}/${bench}.log"
  echo "[run_benches] ${bench}"
  "${bin}" --benchmark_format=json \
           --benchmark_out="${json}" --benchmark_out_format=json \
           >"${log}" 2>&1
  AGGREGATE_ARGS+=("${bench}=${json}")
done

"${BUILD_DIR}/tools/bench_aggregate" "${OUT_JSON}" "${AGGREGATE_ARGS[@]}"
echo "[run_benches] wrote ${OUT_JSON} (${#BENCHES[@]} benches; logs in ${RESULTS_DIR})"
