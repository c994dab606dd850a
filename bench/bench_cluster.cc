// Cluster scale-out sweep: the Flash-style web farm (workloads/web_farm.h)
// spread over M machines by the front-end router (src/cluster), at a fixed
// offered-load ratio of the CLUSTER's capacity. One table, three claims:
//
//   1. Goodput scales with machines: the per-cluster stream is 0.9x of M times
//      one node's saturation rate, so served requests must grow with M while
//      the load-imbalance ratio (max per-machine served over the perfect
//      share) stays near 1 under the feedback router.
//   2. The determinism contract is free to assert: each M's scenario runs
//      twice and every per-machine trace hash must match (RR_CHECK'd here,
//      reported as trace_equal, gated by scripts/check_cluster_scale.py). The
//      M=1 row is additionally pinned bit-identical to a bare
//      RunWebFarmScenario (m1_equal_bare).
//   3. The layer costs nothing at degenerate scale: M=1 is the identity.
//
// A configuration smoke then builds a ~2M-simulated-thread cluster (512
// machines x 4096 real-rate workers) and runs a short horizon through it,
// proving construction, routing, and the per-node controllers stand up at
// that scale.
//
// The `CLUSTER machines=...` and `CLUSTER_SMOKE ...` lines are
// machine-readable: scripts/check_cluster_scale.py parses them and compares
// against the committed BENCH_cluster_baseline.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cluster/cluster_farm.h"
#include "util/assert.h"
#include "util/time.h"
#include "workloads/arrivals.h"
#include "workloads/web_farm.h"

namespace realrate {
namespace {

constexpr uint64_t kSeed = 99;
constexpr double kLoadRatio = 0.9;  // Of the whole cluster's saturation rate.

ClusterFarmParams SweepParams(int machines) {
  ClusterFarmParams params;
  params.num_machines = machines;
  params.farm.num_cpus = 2;
  params.farm.num_workers = 4;
  params.farm.run_for = Duration::Millis(1000);
  params.farm.arrivals.seed = kSeed;
  params.farm.arrivals.requests_per_sec = kLoadRatio * ClusterFarmCapacityRps(params);
  return params;
}

struct Cell {
  ClusterFarmResult result;
  double wall_sec = 0.0;
  bool trace_equal = false;
  bool m1_equal_bare = true;  // Vacuously true for M > 1; checked at M = 1.
};

Cell Measure(int machines) {
  Cell cell;
  cell.wall_sec = 1e30;
  bool first = true;
  // Two runs of the same scenario: the re-run must reproduce every trace exactly.
  for (int run = 0; run < 2; ++run) {
    const ClusterFarmParams params = SweepParams(machines);
    const auto start = std::chrono::steady_clock::now();
    const ClusterFarmResult result = RunClusterFarmScenario(params);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (first) {
      first = false;
      cell.result = result;
      cell.wall_sec = wall;
    } else {
      RR_CHECK(result.machine_trace_hashes == cell.result.machine_trace_hashes);
      RR_CHECK(result.served == cell.result.served);
      RR_CHECK(result.rebalanced == cell.result.rebalanced);
      cell.wall_sec = std::min(cell.wall_sec, wall);
    }
  }
  cell.trace_equal = true;  // The RR_CHECKs above abort on divergence.
  if (machines == 1) {
    // The degenerate cluster is pinned bit-identical to a bare machine running
    // the identical farm: the layer may add only trace-free epoch fences.
    const WebFarmResult bare = RunWebFarmScenario(SweepParams(1).farm);
    cell.m1_equal_bare = cell.result.machine_trace_hashes.size() == 1 &&
                         cell.result.machine_trace_hashes[0] == bare.trace_hash &&
                         cell.result.served == bare.served;
    RR_CHECK(cell.m1_equal_bare);
  }
  RR_CHECK(cell.result.served > 0);
  return cell;
}

void PrintClusterSweep() {
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  bench::PrintHeader(
      "Cluster scale-out (2-core/4-worker nodes, feedback router, Poisson\n"
      "arrivals at 0.9x of the cluster's saturation rate, 1 s virtual) at\n"
      "M=1/4/16 machines; per-machine trace hashes RR_CHECK'd equal across\n"
      "re-runs, M=1 pinned to the bare machine");
  std::printf("  host cpus: %d\n\n", host_cpus);
  std::printf("  %8s %8s %8s %11s %10s %10s %9s %9s %11s %13s\n", "machines", "offered",
              "served", "goodput_rps", "imbalance", "rebalanced", "p50_ms", "p99_ms",
              "trace_equal", "m1_equal_bare");

  for (const int machines : {1, 4, 16}) {
    const Cell cell = Measure(machines);
    const ClusterFarmResult& r = cell.result;
    std::printf("  %8d %8lld %8lld %11.1f %10.3f %10lld %9.2f %9.2f %11s %13s\n",
                machines, static_cast<long long>(r.offered),
                static_cast<long long>(r.served), r.goodput_rps, r.imbalance_ratio,
                static_cast<long long>(r.rebalanced), r.p50_ms, r.p99_ms,
                cell.trace_equal ? "yes" : "NO", cell.m1_equal_bare ? "yes" : "NO");
    // Machine-readable row for scripts/check_cluster_scale.py (CI gate).
    std::printf("CLUSTER machines=%d host_cpus=%d offered=%lld served=%lld "
                "goodput_rps=%.1f imbalance=%.4f rebalanced=%lld listen_drops=%lld "
                "dispatch_drops=%lld p50_ms=%.3f p99_ms=%.3f cluster_hash=%llu "
                "trace_equal=%d m1_equal_bare=%d wall_ms=%.1f\n",
                machines, host_cpus, static_cast<long long>(r.offered),
                static_cast<long long>(r.served), r.goodput_rps, r.imbalance_ratio,
                static_cast<long long>(r.rebalanced),
                static_cast<long long>(r.listen_drops),
                static_cast<long long>(r.dispatch_drops), r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.cluster_hash), cell.trace_equal ? 1 : 0,
                cell.m1_equal_bare ? 1 : 0, cell.wall_sec * 1e3);
  }
  std::printf("\n");
}

// Configuration smoke: stand the cluster up at ~2M simulated threads and push
// a short burst through it. The scale is reached wide — 512 nodes x 4096
// workers — rather than deep, because a node's start-up transient (every
// fresh worker runs once before blocking on its empty queue) costs quadratic
// time in workers-per-machine but only linear in machines. The horizon is
// deliberately tiny: the claim is that construction, per-epoch routing across
// 512 nodes, and 512 independent controllers stand up at this scale, not that
// the run is long. Skippable via REALRATE_CLUSTER_SMOKE=0 (the sanitizer CI
// legs: instrumentation multiplies the smoke's memory and wall cost without
// adding coverage the sweep rows don't already have).
void PrintClusterSmoke() {
  const char* env = std::getenv("REALRATE_CLUSTER_SMOKE");
  if (env != nullptr && env[0] == '0') {
    std::printf("CLUSTER_SMOKE skipped=1\n\n");
    return;
  }
  ClusterFarmParams params;
  params.num_machines = 512;
  params.farm.num_cpus = 2;
  params.farm.num_workers = 4'096;
  params.farm.run_for = Duration::Millis(20);
  params.epoch = Duration::Millis(10);
  params.rebalance_interval = Duration::Zero();
  params.farm.arrivals.seed = kSeed;
  params.farm.arrivals.requests_per_sec = 100'000.0;
  const auto start = std::chrono::steady_clock::now();
  const ClusterFarmResult r = RunClusterFarmScenario(params);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  RR_CHECK(r.injected > 0);
  bench::PrintHeader("Configuration smoke: 512 machines x 4096 workers (~2M threads)");
  std::printf("  total simulated threads: %lld  injected: %lld  served: %lld  "
              "wall: %.1f s\n\n",
              static_cast<long long>(r.total_threads), static_cast<long long>(r.injected),
              static_cast<long long>(r.served), wall);
  std::printf("CLUSTER_SMOKE machines=%d total_threads=%lld injected=%lld served=%lld "
              "cluster_hash=%llu wall_ms=%.1f\n\n",
              r.num_machines, static_cast<long long>(r.total_threads),
              static_cast<long long>(r.injected), static_cast<long long>(r.served),
              static_cast<unsigned long long>(r.cluster_hash), wall * 1e3);
}

void BM_ClusterRoundtrip(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  ClusterFarmParams params = SweepParams(machines);
  params.farm.run_for = Duration::Millis(100);
  params.farm.arrivals.requests_per_sec = kLoadRatio * ClusterFarmCapacityRps(params);
  for (auto _ : state) {
    const ClusterFarmResult result = RunClusterFarmScenario(params);
    benchmark::DoNotOptimize(result.cluster_hash);
  }
  state.counters["machines"] = static_cast<double>(machines);
}
BENCHMARK(BM_ClusterRoundtrip)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace realrate

int main(int argc, char** argv) {
  realrate::PrintClusterSweep();
  realrate::PrintClusterSmoke();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
