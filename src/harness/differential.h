// Differential scheduler harness: executes one generated WorkloadSpec under
// RBS+feedback, lottery, MLFQ, and fixed-priority machines, with the invariant oracle
// riding along, and cross-checks metamorphic properties between runs:
//
//   - clock scaling: doubling clock_hz exactly doubles the dispatch tick's cycle
//     capacity and (for workloads without wall-clock-paced sources) scales delivered
//     user cycles proportionally;
//   - core monotonicity: adding a core to a partitionable load never reduces the user
//     cycles the machine delivers;
//   - seed stability: the same spec on a 1-CPU machine produces the identical trace
//     hash on every run, under every scheduler;
//   - mode equivalence: the feedback machine re-run with the controller's reference
//     sweep must reproduce the production run's trace bit for bit.
//
// Every feedback run also pins the RBS pick index to the reference O(n) scan at each
// dispatch, through the oracle's reference-pick check (harness/invariants.h).
//
// CheckSeed() is the unit the realrate_check CLI and the fuzz CTest batch iterate:
// generate the spec for a seed, run the differential battery, return every failure
// with enough context (spec dump + offending trace) to reproduce from the seed alone.
#ifndef REALRATE_HARNESS_DIFFERENTIAL_H_
#define REALRATE_HARNESS_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenarios.h"  // SchedulerKind.
#include "harness/invariants.h"
#include "harness/workload_gen.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

struct RunOptions {
  SchedulerKind kind = SchedulerKind::kFeedbackRbs;
  // 0 means "use spec.num_cpus".
  int num_cpus_override = 0;
  double clock_multiplier = 1.0;
  // Zero means "use spec.run_for"; otherwise the run lasts exactly this long.
  Duration run_for_override = Duration::Zero();
  // Feedback machine only: run the RBS in work-conserving (background) mode, where
  // budget-exhausted threads may still soak otherwise-idle capacity. Used by the
  // core-monotonicity check, whose throughput claim is demand-bound, not
  // allocation-ramp-bound.
  bool rbs_work_conserving = false;
  // Feedback machine only: run the controller's staged Sample→Estimate→Resolve→
  // Actuate pipeline (default, the production configuration) or the monolithic
  // reference sweep (FeedbackAllocator::RunOnceReference). The fuzz battery runs
  // both and demands bit-identical traces.
  bool controller_use_pipeline = true;
  // Feedback machine only: controller shadow mode — every tick re-derives the
  // pipeline's incrementally maintained state (ledger sums, cached pressures,
  // saturation verdicts, evidence counts) the reference way and asserts equality
  // (see ControllerConfig::shadow_check).
  bool controller_shadow_check = false;
  // Machine idle fast-forward (skip runs of empty dispatch ticks). On by default,
  // like the production configuration; the metamorphic battery re-runs with it off
  // and demands a bit-identical trace.
  bool machine_idle_fast_forward = true;
  // Fill RunOutcome::trace_dump when the oracle records violations.
  bool collect_trace_dump = false;
  OracleConfig oracle;
};

struct RunOutcome {
  SchedulerKind kind = SchedulerKind::kFeedbackRbs;
  int num_cpus = 1;
  uint64_t trace_hash = 0;
  Cycles user_cycles = 0;       // CpuUse::kUser summed over every core.
  Cycles cycles_per_tick = 0;   // One core's dispatch-interval capacity.
  int64_t total_progress = 0;   // Σ progress_units over every thread.
  int64_t dispatches = 0;
  // Feedback runs only: picks (idle decisions included) the oracle compared against
  // the reference O(n) scans, summed over cores.
  int64_t reference_pick_checks = 0;
  // Feedback runs only: controller-shadow equalities asserted (zero unless
  // RunOptions::controller_shadow_check) and dirty-set sampler activity.
  int64_t controller_shadow_checks = 0;
  int64_t controller_clean_samples = 0;
  int64_t violation_count = 0;
  std::vector<std::string> violations;  // Recorded subset (see OracleConfig).
  std::string trace_dump;               // Only when collect_trace_dump and violations.
};

// Builds the machine described by (spec, options) and runs it with the invariant
// oracle attached. Deterministic: identical inputs produce identical outcomes.
RunOutcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

struct SeedCheckOptions {
  // Disables the metamorphic battery (clock scaling / core monotonicity / seed
  // stability), leaving the four per-scheduler invariant runs and the feedback
  // machine's controller-reference equivalence run.
  bool run_metamorphic = true;
  // Attach the first violating run's trace to the report.
  bool collect_trace_dump = true;
};

struct SeedReport {
  uint64_t seed = 0;
  WorkloadSpec spec;
  std::vector<std::string> failures;  // Empty <=> the seed passed everything.
  std::string trace_dump;             // First violating run's trace (may be empty).
  bool ok() const { return failures.empty(); }
};

// The full battery for one seed. All schedulers, all metamorphic properties.
SeedReport CheckSeed(uint64_t seed, const SeedCheckOptions& options = SeedCheckOptions{});

}  // namespace realrate

#endif  // REALRATE_HARNESS_DIFFERENTIAL_H_
