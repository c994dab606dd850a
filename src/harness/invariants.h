// InvariantOracle: a runtime oracle that rides inside a simulated machine and
// validates machine-level invariants at every dispatch pick, every dispatch tick, and
// every controller iteration:
//
//   - per-core proportion feasibility: the reserved proportions drawn from one core
//     never sum above 100% of that core (the controller's admission + squish pipeline
//     and the Machine's rebalancer must jointly maintain this);
//   - dispatch legality: the scheduler never hands the CPU to a blocked, sleeping, or
//     exited thread, nor to a thread assigned to a different core;
//   - reference pick (RbsScheduler cores): every pick, idle decisions included,
//     equals ReferenceReservedPick whenever that is non-null, and the occupancy
//     counts that gate the round-robin fallback agree with a fallback scan — the
//     indexed hot path pinned to the original O(n) scan at every dispatch;
//   - bounded-buffer occupancy: every registered queue's fill stays in [0, capacity];
//   - clock monotonicity: per-core tick times and controller iteration times never
//     move backwards;
//   - trace well-formedness: the structured trace suffix recorded since the previous
//     check passes TraceRecorder::WellFormedError.
//
// The oracle is a pure observer (see MachineChecker): attaching one leaves the
// schedule bit-identical, so a trace hash taken with the oracle installed pins the
// same behavior as one taken without. Violations are accumulated (bounded) rather
// than thrown, so a fuzzing run can report the first offending seed with context; set
// `abort_on_violation` to crash at the first violation instead (useful under ASan).
#ifndef REALRATE_HARNESS_INVARIANTS_H_
#define REALRATE_HARNESS_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sched/machine.h"
#include "sched/rbs.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

class QueueRegistry;
class System;

// The reference implementations the oracle checks RbsScheduler's pick against: the
// original O(n) scans over the scheduler's thread vector and the slab columns.
// Side-effect-free — the scheduler's round-robin cursor is untouched.
//
// The best reserved thread with budget left — rate-monotonic: highest period rank,
// EDF: earliest period deadline; ties go to the earlier-admitted thread — or null.
SimThread* ReferenceReservedPick(const RbsScheduler& rbs);
// Does the round-robin fallback have a candidate: a runnable thread without a
// reservation or, when work-conserving, a runnable reserved one whose budget is spent?
bool HasFallbackCandidate(const RbsScheduler& rbs);

struct InvariantViolation {
  TimePoint t;
  std::string message;
};

struct OracleConfig {
  // Ceiling for one core's reserved-proportion sum. The controller actually enforces
  // its overload_threshold (0.95 by default); the oracle checks the weaker hard bound
  // Σ <= 1 so it stays valid for rigs that bypass the controller.
  double max_core_allocation = 1.0;
  // Violations recorded verbatim; beyond this they are only counted.
  size_t max_recorded = 16;
  // Abort the process at the first violation (with the message on stderr).
  bool abort_on_violation = false;
};

class InvariantOracle : public MachineChecker {
 public:
  explicit InvariantOracle(const OracleConfig& config = OracleConfig{});

  // Installs the oracle as `machine`'s checker. `queues` (may be null) adds the
  // occupancy check over every buffer in the registry; cores whose scheduler is an
  // RbsScheduler get the reference-pick check. The observed machine (and,
  // for Observe(System&), the controller's hook) holds a raw reference to this
  // oracle, so the oracle must outlive it — or at least the simulation must never
  // run again after the oracle is destroyed; declare the oracle before the
  // machine/system it observes. Re-observing a fresh machine resets the per-machine
  // watermarks; violation counters accumulate across Observe calls.
  void Observe(Machine& machine, QueueRegistry* queues);
  // Convenience for fully wired systems: machine + queue registry + controller hook.
  void Observe(System& system);

  // MachineChecker:
  void OnPicked(const Machine& machine, CpuId core, const SimThread* pick,
                TimePoint now) override;
  void OnTickComplete(const Machine& machine, CpuId core, TimePoint now) override;

  // Controller-iteration observation (wired by Observe(System&) through
  // FeedbackAllocator::SetPostRunHook).
  void OnControllerRun(const Machine& machine, TimePoint now);

  // End-of-run flush: validates everything recorded after the last in-run sweep
  // (queue occupancy, trace suffix, per-core feasibility). Call once after the final
  // RunFor/RunUntil, before reading the verdict — the tick hooks cannot see events
  // from the closing partial interval.
  void FinishRun(const Machine& machine, TimePoint now);

  bool ok() const { return violation_count_ == 0; }
  int64_t violation_count() const { return violation_count_; }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  // Observation counters, so tests can prove the hooks actually fired.
  int64_t ticks_observed() const { return ticks_observed_; }
  int64_t picks_observed() const { return picks_observed_; }
  // Picks (idle decisions included) compared against the reference scans.
  int64_t reference_pick_checks() const { return reference_pick_checks_; }
  int64_t controller_runs_observed() const { return controller_runs_observed_; }

  // One line per recorded violation (plus a tail count when over max_recorded).
  std::string Summary() const;

 private:
  void CheckCoreFeasibility(const Machine& machine, CpuId core, TimePoint now);
  void CheckReferencePick(const RbsScheduler& rbs, CpuId core, const SimThread* pick,
                          TimePoint now);
  void CheckQueues(TimePoint now);
  void CheckTrace(const Machine& machine, TimePoint now);
  void Report(TimePoint now, std::string message);

  OracleConfig config_;
  QueueRegistry* queues_ = nullptr;
  std::vector<const RbsScheduler*> rbs_;  // Per core; null for other schedulers.
  std::vector<TimePoint> last_tick_;  // Per core; grown on each core's first tick.
  TimePoint last_controller_run_;
  bool controller_ran_ = false;
  size_t trace_checked_ = 0;  // Trace events validated so far.
  int64_t ticks_observed_ = 0;
  int64_t picks_observed_ = 0;
  int64_t reference_pick_checks_ = 0;
  int64_t controller_runs_observed_ = 0;
  int64_t violation_count_ = 0;
  std::vector<InvariantViolation> violations_;
};

}  // namespace realrate

#endif  // REALRATE_HARNESS_INVARIANTS_H_
