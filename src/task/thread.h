// SimThread: the schedulable entity. Carries the reservation attributes (proportion,
// period), the controller-facing importance, usage accounting, and the thread's work
// model. The hot fields (state, policy, core, importance, reservation, budget, period
// phase) live in the thread's slot of its ThreadSlabs columns (task/thread_slabs.h),
// the only store of them; their getters and setters below are inline reads and
// writes of that slot.
#ifndef REALRATE_TASK_THREAD_H_
#define REALRATE_TASK_THREAD_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "task/thread_slabs.h"
#include "task/work_model.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

class SimThread {
 public:
  // Appends this thread's slot to `slabs` (which must outlive it); `id` must be the
  // next slot, so slot == id.
  SimThread(ThreadSlabs& slabs, ThreadId id, std::string name, std::unique_ptr<WorkModel> work)
      : id_(id), name_(std::move(name)), work_(std::move(work)), slabs_(slabs) {
    RR_EXPECTS(work_ != nullptr);
    slabs_.Append(this);
  }

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  WorkModel& work() { return *work_; }

  ThreadState state() const { return slabs_.state(slab_slot()); }
  void set_state(ThreadState s) {
    ThreadState& column = slabs_.state_[at()];
    slabs_.runnable_count_ += (s == ThreadState::kRunnable) - (column == ThreadState::kRunnable);
    column = s;
  }
  // When the thread last became runnable (wake from block/sleep; origin at creation).
  // The deadline-miss check uses it to ignore threads that only wanted CPU for part of
  // the period.
  TimePoint last_wake_time() const { return last_wake_time_; }
  void set_last_wake_time(TimePoint t) { last_wake_time_ = t; }
  bool IsRunnable() const { return state() == ThreadState::kRunnable; }
  bool HasExited() const { return state() == ThreadState::kExited; }

  // --- Controller inputs ---
  SchedPolicy policy() const { return slabs_.policy(slab_slot()); }
  void set_policy(SchedPolicy p) { slabs_.policy_[at()] = p; }
  double importance() const { return slabs_.importance(slab_slot()); }
  void set_importance(double w) {
    RR_EXPECTS(w > 0);
    slabs_.importance_[at()] = w;
  }

  // --- Core affinity (maintained by the Machine's placement/migration policy) ---
  // The core this thread dispatches on. A thread only ever runs on its assigned core;
  // the Machine moves it with Migrate(), never mid-dispatch.
  CpuId cpu() const { return slabs_.cpu(slab_slot()); }
  void set_cpu(CpuId core) {
    RR_EXPECTS(core >= 0);
    slabs_.cpu_[at()] = core;
  }

  // --- Reservation attributes (actuated by the controller) ---
  Proportion proportion() const { return Proportion::Ppt(slabs_.granted_ppt(slab_slot())); }
  Duration period() const { return Duration::Nanos(slabs_.period_nanos(slab_slot())); }
  // Keeps the period phase: the current period still starts at period_start(), and
  // its deadline moves to period_start() + `period`.
  void SetReservation(Proportion proportion, Duration period) {
    RR_EXPECTS(proportion.ppt() >= 0 && proportion.ppt() <= Proportion::kFull);
    RR_EXPECTS(period.IsPositive());
    const TimePoint start = period_start();
    const size_t i = at();
    slabs_.granted_ppt_[i] = proportion.ppt();
    slabs_.period_nanos_[i] = period.nanos();
    slabs_.rm_rank_[i] = PeriodRank(period);
    slabs_.deadline_nanos_[i] = (start + period).nanos();
  }

  // --- Per-period budget bookkeeping (maintained by the RBS scheduler) ---
  Cycles budget_remaining() const { return slabs_.budget(slab_slot()); }
  void set_budget_remaining(Cycles c) { slabs_.budget_[at()] = c; }
  // Budget the thread was entitled to at the start of the current period. Deadline
  // misses are judged against this snapshot, so a controller raising the proportion
  // mid-period does not retroactively create "misses".
  Cycles period_entitlement() const { return period_entitlement_; }
  void set_period_entitlement(Cycles c) { period_entitlement_ = c; }
  // The period start is stored as the deadline: start == deadline − period.
  TimePoint period_start() const {
    const int32_t s = slab_slot();
    return TimePoint::FromNanos(slabs_.deadline_nanos(s) - slabs_.period_nanos(s));
  }
  void set_period_start(TimePoint t) { slabs_.deadline_nanos_[at()] = (t + period()).nanos(); }
  int64_t deadline_misses() const { return deadline_misses_; }
  void CountDeadlineMiss() { ++deadline_misses_; }

  // --- Scheduler-private slot ---
  // Opaque per-thread state owned by the scheduler instance the thread is currently
  // enqueued on (set by its AddThread, cleared by its RemoveThread). Exists so the
  // dispatch hot path reaches its per-thread index node without a hash lookup; no
  // one but the owning scheduler may interpret it. See RbsScheduler::Node.
  void* sched_slot() const { return sched_slot_; }
  void set_sched_slot(void* slot) { sched_slot_ = slot; }

  // --- Hot-field slabs (see task/thread_slabs.h) ---
  // The slabs holding this thread's hot fields, and its slot there (== its id). The
  // slot is stable for the thread's lifetime; consumers may cache it.
  const ThreadSlabs& slabs() const { return slabs_; }
  int32_t slab_slot() const { return id_; }

  // --- Baseline-scheduler bookkeeping ---
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }
  int counter() const { return counter_; }
  void set_counter(int c) { counter_ = c; }
  int64_t tickets() const { return tickets_; }
  void set_tickets(int64_t t) { tickets_ = t; }

  // --- Usage accounting ---
  void OnRan(Cycles used) {
    RR_EXPECTS(used >= 0);
    total_cycles_ += used;
    window_cycles_ += used;
    cycles_this_period_ += used;
    burst_accum_ += used;
  }
  Cycles total_cycles() const { return total_cycles_; }
  Cycles cycles_this_period() const { return cycles_this_period_; }
  void ResetPeriodCycles() { cycles_this_period_ = 0; }
  // Controller sampling: cycles used since the previous sample.
  Cycles TakeWindowCycles() {
    const Cycles c = window_cycles_;
    window_cycles_ = 0;
    return c;
  }

  // --- Progress counter (bytes/items/keys processed), read by experiments ---
  void AddProgress(int64_t units) { progress_units_ += units; }
  int64_t progress_units() const { return progress_units_; }

  // --- Burst measurement (the §3.2 interactive heuristic: "estimating their
  // proportion by measuring the amount of time they typically run before blocking").
  // OnRan accumulates; the machine calls OnBurstEnd when the thread blocks or sleeps
  // voluntarily, folding the burst into an exponentially weighted average. ---
  void OnBurstEnd() {
    if (burst_accum_ > 0) {
      burst_ewma_ = burst_ewma_ == 0.0
                        ? static_cast<double>(burst_accum_)
                        : 0.7 * burst_ewma_ + 0.3 * static_cast<double>(burst_accum_);
      burst_accum_ = 0;
    }
  }
  double burst_ewma_cycles() const { return burst_ewma_; }

 private:
  size_t at() const { return static_cast<size_t>(id_); }

  const ThreadId id_;
  const std::string name_;
  std::unique_ptr<WorkModel> work_;
  ThreadSlabs& slabs_;

  Cycles period_entitlement_ = 0;
  TimePoint last_wake_time_;
  int64_t deadline_misses_ = 0;

  void* sched_slot_ = nullptr;

  int priority_ = 0;
  int counter_ = 0;
  int64_t tickets_ = 100;

  Cycles total_cycles_ = 0;
  Cycles window_cycles_ = 0;
  Cycles cycles_this_period_ = 0;
  int64_t progress_units_ = 0;
  Cycles burst_accum_ = 0;
  double burst_ewma_ = 0.0;
};

}  // namespace realrate

#endif  // REALRATE_TASK_THREAD_H_
