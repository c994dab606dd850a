// Open-loop web farm under an offered-load sweep: a Flash-style acceptor/worker
// farm (workloads/web_farm.h) driven by a seeded Poisson arrival stream at 0.5x
// to 2x of the farm's saturation rate. One table, three claims:
//
//   1. Determinism is free to assert: each ratio's stream is materialized once,
//      then replayed twice, and both runs must produce the same trace hash
//      (RR_CHECK'd here, reported as the trace_equal column, and gated by
//      scripts/check_web_farm.py).
//   2. Overload shows up as admission drops, not collapse: the feedback allocator
//      targets half-full queues, so steady-state latency is pinned near the
//      half-queue backlog at every load while the drop fraction climbs with the
//      offered ratio and goodput saturates near capacity.
//   3. The tail columns (p50/p99/p999) are the paper's missing open-loop story:
//      the closed-loop fuzzer can never over-subscribe the farm, this sweep
//      always does at 1.5x and 2x.
//
// The `WEB_FARM ratio=...` lines are machine-readable: scripts/check_web_farm.py
// parses them and compares against the committed BENCH_web_farm_baseline.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "util/assert.h"
#include "util/time.h"
#include "workloads/arrivals.h"
#include "workloads/web_farm.h"

namespace realrate {
namespace {

constexpr uint64_t kSeed = 99;
constexpr int kCpus = 4;

WebFarmParams FarmParams() {
  WebFarmParams params;
  params.num_cpus = kCpus;
  params.num_workers = 8;
  params.run_for = Duration::Millis(1000);
  return params;
}

// One offered-load ratio's stream: the same seed at every ratio, so the sweep
// varies only the rate, never the shape of the randomness.
std::vector<RequestRecord> StreamAt(double ratio) {
  WebFarmParams sizing = FarmParams();
  ArrivalConfig config;
  config.seed = kSeed;
  config.requests_per_sec = ratio * WebFarmCapacityRps(sizing);
  return GenerateRequests(config, sizing.run_for);
}

struct Cell {
  WebFarmResult result;
  double wall_sec = 0.0;
  bool trace_equal = false;
};

Cell Measure(double ratio) {
  const std::vector<RequestRecord> stream = StreamAt(ratio);
  Cell cell;
  cell.wall_sec = 1e30;
  uint64_t reference_hash = 0;
  // Two runs of the same stream: the re-run must reproduce the trace exactly.
  for (int run = 0; run < 2; ++run) {
    WebFarmParams params = FarmParams();
    params.replay = stream;
    const auto start = std::chrono::steady_clock::now();
    const WebFarmResult result = RunWebFarmScenario(params);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (reference_hash == 0) {
      reference_hash = result.trace_hash;
      cell.result = result;
      cell.wall_sec = wall;
    } else {
      RR_CHECK(result.trace_hash == reference_hash);
      RR_CHECK(result.served == cell.result.served);
      cell.wall_sec = std::min(cell.wall_sec, wall);
    }
  }
  cell.trace_equal = true;  // The RR_CHECKs above abort on divergence.
  RR_CHECK(cell.result.served > 0);
  return cell;
}

void PrintWebFarmSweep() {
  const int host_cpus = static_cast<int>(std::thread::hardware_concurrency());
  bench::PrintHeader(
      "Open-loop web farm (4 simulated cores, 8 workers, Poisson arrivals, 1 s\n"
      "virtual) swept from 0.5x to 2x of saturation; every row's trace hash is\n"
      "RR_CHECK'd equal across re-runs");
  std::printf("  host cpus: %d\n\n", host_cpus);
  std::printf("  %6s %8s %8s %7s %9s %9s %9s %9s %7s %11s\n", "ratio", "offered",
              "served", "drops", "drop_frac", "p50_ms", "p99_ms", "p999_ms", "user",
              "trace_equal");

  bool all_equal = true;
  for (const double ratio : {0.5, 0.75, 1.0, 1.5, 2.0}) {
    const Cell cell = Measure(ratio);
    const WebFarmResult& r = cell.result;
    const int64_t drops = r.listen_drops + r.dispatch_drops;
    const double drop_frac =
        r.offered > 0 ? static_cast<double>(drops) / static_cast<double>(r.offered) : 0.0;
    all_equal = all_equal && cell.trace_equal;
    std::printf("  %6.2f %8lld %8lld %7lld %9.3f %9.2f %9.2f %9.2f %7.3f %11s\n", ratio,
                static_cast<long long>(r.offered), static_cast<long long>(r.served),
                static_cast<long long>(drops), drop_frac, r.p50_ms, r.p99_ms, r.p999_ms,
                r.aggregate_user_fraction, cell.trace_equal ? "yes" : "NO");
    // Machine-readable row for scripts/check_web_farm.py (CI gate).
    std::printf("WEB_FARM ratio=%.2f host_cpus=%d offered=%lld served=%lld "
                "listen_drops=%lld dispatch_drops=%lld drop_frac=%.4f p50_ms=%.3f "
                "p99_ms=%.3f p999_ms=%.3f user_frac=%.3f trace_hash=%llu "
                "trace_equal=%d wall_ms=%.1f\n",
                ratio, host_cpus, static_cast<long long>(r.offered),
                static_cast<long long>(r.served), static_cast<long long>(r.listen_drops),
                static_cast<long long>(r.dispatch_drops), drop_frac, r.p50_ms, r.p99_ms,
                r.p999_ms, r.aggregate_user_fraction,
                static_cast<unsigned long long>(r.trace_hash), cell.trace_equal ? 1 : 0,
                cell.wall_sec * 1e3);
  }
  RR_CHECK(all_equal);
  std::printf("\n");
}

void BM_WebFarmRoundtrip(benchmark::State& state) {
  WebFarmParams params = FarmParams();
  params.run_for = Duration::Millis(100);
  params.arrivals.seed = kSeed;
  params.arrivals.requests_per_sec = WebFarmCapacityRps(params);
  for (auto _ : state) {
    const WebFarmResult result = RunWebFarmScenario(params);
    benchmark::DoNotOptimize(result.trace_hash);
  }
}
BENCHMARK(BM_WebFarmRoundtrip)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace realrate

int main(int argc, char** argv) {
  realrate::PrintWebFarmSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
