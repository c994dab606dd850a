#include "harness/invariants.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "exp/system.h"
#include "queue/registry.h"
#include "sim/simulator.h"
#include "task/thread.h"

namespace realrate {

SimThread* ReferenceReservedPick(const RbsScheduler& rbs) {
  // Strict comparisons break ties by position in the thread vector — admission
  // order, which the pick index reproduces with its sequence-number tiebreak.
  const bool edf = rbs.config().order == DispatchOrder::kEarliestDeadlineFirst;
  SimThread* best = nullptr;
  int64_t best_key = 0;
  for (SimThread* t : rbs.threads()) {
    const ThreadSlabs& slabs = t->slabs();
    const int32_t s = t->slab_slot();
    if (slabs.state(s) != ThreadState::kRunnable ||
        slabs.policy(s) != SchedPolicy::kReservation || slabs.granted_ppt(s) == 0 ||
        slabs.budget(s) <= 0) {
      continue;
    }
    // Smaller wins: the deadline, or the negated rank (shortest period first).
    const int64_t key = edf ? slabs.deadline_nanos(s) : -slabs.rm_rank(s);
    if (best == nullptr || key < best_key) {
      best = t;
      best_key = key;
    }
  }
  return best;
}

bool HasFallbackCandidate(const RbsScheduler& rbs) {
  const bool work_conserving = rbs.config().work_conserving;
  return std::any_of(rbs.threads().begin(), rbs.threads().end(), [&](const SimThread* t) {
    const ThreadSlabs& slabs = t->slabs();
    const int32_t s = t->slab_slot();
    const bool reserved =
        slabs.policy(s) == SchedPolicy::kReservation && slabs.granted_ppt(s) != 0;
    return slabs.state(s) == ThreadState::kRunnable &&
           (!reserved || (work_conserving && slabs.budget(s) <= 0));
  });
}

InvariantOracle::InvariantOracle(const OracleConfig& config) : config_(config) {}

void InvariantOracle::Observe(Machine& machine, QueueRegistry* queues) {
  queues_ = queues;
  rbs_.clear();
  for (CpuId core = 0; core < machine.num_cpus(); ++core) {
    rbs_.push_back(dynamic_cast<const RbsScheduler*>(&machine.scheduler(core)));
  }
  // Per-machine progress state starts over; violation counters deliberately
  // accumulate across Observe calls so earlier findings cannot vanish silently.
  last_tick_.assign(static_cast<size_t>(machine.num_cpus()), TimePoint::Origin());
  trace_checked_ = 0;
  controller_ran_ = false;
  machine.SetChecker(this);
}

void InvariantOracle::Observe(System& system) {
  Observe(system.machine(), &system.queues());
  system.controller().SetPostRunHook(
      [this, &system](TimePoint now) { OnControllerRun(system.machine(), now); });
}

void InvariantOracle::Report(TimePoint now, std::string message) {
  ++violation_count_;
  if (config_.abort_on_violation) {
    std::fprintf(stderr, "invariant violation at %.6fs: %s\n", now.ToSeconds(),
                 message.c_str());
    std::abort();
  }
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back({now, std::move(message)});
  }
}

void InvariantOracle::OnPicked(const Machine& /*machine*/, CpuId core,
                               const SimThread* pick, TimePoint now) {
  const auto c = static_cast<size_t>(core);
  if (c < rbs_.size() && rbs_[c] != nullptr) {
    CheckReferencePick(*rbs_[c], core, pick, now);
  }
  if (pick == nullptr) {
    return;  // The core idles; nothing was dispatched.
  }
  ++picks_observed_;
  if (pick->state() != ThreadState::kRunnable) {
    Report(now, "core " + std::to_string(core) + " dispatched thread " +
                    std::to_string(pick->id()) + " (" + pick->name() + ") in state " +
                    ToString(pick->state()));
  }
  if (pick->cpu() != core) {
    Report(now, "core " + std::to_string(core) + " dispatched thread " +
                    std::to_string(pick->id()) + " assigned to core " +
                    std::to_string(pick->cpu()));
  }
}

void InvariantOracle::CheckReferencePick(const RbsScheduler& rbs, CpuId core,
                                         const SimThread* pick, TimePoint now) {
  ++reference_pick_checks_;
  const SimThread* reference = ReferenceReservedPick(rbs);
  if (reference != nullptr) {
    if (pick != reference) {
      Report(now, "core " + std::to_string(core) + " picked " +
                      (pick == nullptr ? std::string("nothing")
                                       : "thread " + std::to_string(pick->id())) +
                      " but the reference reserved pick is thread " +
                      std::to_string(reference->id()));
    }
    return;
  }
  // No reserved thread can run, so the pick index is empty and runnable_reserved
  // counts only exhausted reservations: the gate PickNext applies before its
  // round-robin scan must agree with that scan.
  const bool gate_open = rbs.runnable_unreserved() > 0 ||
                         (rbs.config().work_conserving && rbs.runnable_reserved() > 0);
  const bool candidate = HasFallbackCandidate(rbs);
  if (gate_open != candidate) {
    Report(now, "core " + std::to_string(core) + " occupancy counts (unreserved " +
                    std::to_string(rbs.runnable_unreserved()) + ", reserved " +
                    std::to_string(rbs.runnable_reserved()) +
                    ") disagree with the fallback scan");
  }
  if ((pick != nullptr) != candidate) {
    Report(now, "core " + std::to_string(core) +
                    (candidate ? " idled while the round-robin fallback had a candidate"
                               : " picked a thread the round-robin fallback cannot run"));
  }
}

void InvariantOracle::OnTickComplete(const Machine& machine, CpuId core, TimePoint now) {
  ++ticks_observed_;
  const auto c = static_cast<size_t>(core);
  if (c >= last_tick_.size()) {
    // Grown here rather than only in Observe() so the monotonicity check also works
    // when the oracle is installed directly through Machine::SetChecker.
    last_tick_.resize(c + 1, TimePoint::Origin());
  }
  if (now < last_tick_[c]) {
    Report(now, "core " + std::to_string(core) + " ticked backwards in time");
  }
  last_tick_[c] = now;
  // Cores tick in lockstep at identical timestamps, so machine-wide sweeps (every
  // core's feasibility, every queue, the trace suffix) run once per timestamp rather
  // than num_cpus times with no added detection power. The sweep rides the last
  // core's tick — the final one of each timestamp's tick group, so it sees every
  // event the group recorded; the ticking core's own feasibility is always checked,
  // so a violation still surfaces within the tick that created it.
  CheckCoreFeasibility(machine, core, now);
  if (core == machine.num_cpus() - 1) {
    for (CpuId other = 0; other < machine.num_cpus() - 1; ++other) {
      CheckCoreFeasibility(machine, other, now);
    }
    CheckQueues(now);
    CheckTrace(machine, now);
  }
}

void InvariantOracle::FinishRun(const Machine& machine, TimePoint now) {
  for (CpuId core = 0; core < machine.num_cpus(); ++core) {
    CheckCoreFeasibility(machine, core, now);
  }
  CheckQueues(now);
  CheckTrace(machine, now);
}

void InvariantOracle::OnControllerRun(const Machine& machine, TimePoint now) {
  ++controller_runs_observed_;
  if (controller_ran_ && now < last_controller_run_) {
    Report(now, "controller iteration moved backwards in time");
  }
  controller_ran_ = true;
  last_controller_run_ = now;
  for (CpuId core = 0; core < machine.num_cpus(); ++core) {
    CheckCoreFeasibility(machine, core, now);
  }
}

void InvariantOracle::CheckCoreFeasibility(const Machine& machine, CpuId core,
                                           TimePoint now) {
  const double reserved = machine.ReservedFractionOn(core);
  if (reserved > config_.max_core_allocation + 1e-9) {
    Report(now, "core " + std::to_string(core) + " over-allocated: reserved " +
                    std::to_string(reserved) + " > " +
                    std::to_string(config_.max_core_allocation));
  }
}

void InvariantOracle::CheckQueues(TimePoint now) {
  if (queues_ == nullptr) {
    return;
  }
  for (const BoundedBuffer* q : queues_->AllQueues()) {
    if (q->fill() < 0 || q->fill() > q->capacity()) {
      Report(now, "queue " + q->name() + " occupancy " + std::to_string(q->fill()) +
                      " outside [0, " + std::to_string(q->capacity()) + "]");
    }
  }
}

void InvariantOracle::CheckTrace(const Machine& machine, TimePoint now) {
  const TraceRecorder& trace = machine.sim().trace();
  // WellFormedError compares the first event of the suffix against its predecessor,
  // so ordering across the incremental-sweep boundary is covered.
  std::string error = trace.WellFormedError(trace_checked_);
  if (!error.empty()) {
    Report(now, std::move(error));
  }
  trace_checked_ = trace.events().size();
}

std::string InvariantOracle::Summary() const {
  std::string out;
  char head[64];
  for (const InvariantViolation& v : violations_) {
    std::snprintf(head, sizeof(head), "[%.6fs] ", v.t.ToSeconds());
    out += head;
    out += v.message;
    out += '\n';
  }
  const auto extra = violation_count_ - static_cast<int64_t>(violations_.size());
  if (extra > 0) {
    out += "... and " + std::to_string(extra) + " more violations\n";
  }
  return out;
}

}  // namespace realrate
