// Scheduler: the dispatch-time policy interface. The Machine (machine.h) owns thread
// state transitions and the timeline; a Scheduler only orders runnable threads and
// accounts budgets. This split mirrors the paper's "dispatcher" (low-level, runs at
// dispatch time) versus policy distinction.
//
// Ownership: a Scheduler instance is one core's run queue. It does not own the
// SimThreads it orders (the ThreadRegistry does) and holds no reference to the
// Machine; on an SMP machine there is one instance per core, each seeing only the
// threads the Machine placed (or migrated) there.
//
// Units: all cycle quantities (MaxGrant, OnRan, tick_remaining) are simulated Cycles;
// all times are virtual TimePoints. Grants are clipped against per-period budgets
// derived from Proportion (parts-per-thousand of the owning core).
//
// Thread-safety: none — every method is invoked from single-threaded simulator
// events (the owning core's tick, or wake/block transitions routed by the Machine).
// Implementations must be deterministic: PickNext ties are broken by thread id.
#ifndef REALRATE_SCHED_SCHEDULER_H_
#define REALRATE_SCHED_SCHEDULER_H_

#include <optional>

#include "task/thread.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  virtual void AddThread(SimThread* thread) = 0;
  virtual void RemoveThread(SimThread* thread) = 0;

  // Called once at each timer tick before dispatching (replenish budgets, recalculate
  // counters...).
  virtual void OnTick(TimePoint now) = 0;

  // Idle fast-forward catch-up (see Machine): the machine skipped `count` ticks, all
  // of which would have found no runnable thread, and the last of which would have
  // run at `now`. Must leave the scheduler in the state `count` OnTick calls ending
  // at `now` would have, given that no thread was runnable throughout. The default
  // replays OnTick literally; implementations with cheaper closed forms override.
  virtual void OnTicksSkipped(int64_t count, TimePoint now) {
    for (int64_t i = 0; i < count; ++i) {
      OnTick(now);
    }
  }

  // The dispatch decision: the runnable thread with the highest goodness, or nullptr if
  // nothing is runnable. Must be deterministic.
  virtual SimThread* PickNext(TimePoint now) = 0;

  // Upper bound on the cycles `thread` may receive right now (budget clipping).
  // `tick_remaining` is the cycle budget left in the current dispatch interval.
  virtual Cycles MaxGrant(SimThread* thread, Cycles tick_remaining) = 0;

  // Unused; stays only for perfbench/rrbench.cc, goes with the next benchmark change.
  virtual Cycles RoundCycleBound(const SimThread* /*thread*/, Cycles tick_cycles) const {
    return tick_cycles;
  }

  // Accounting after `thread` consumed `used` cycles.
  virtual void OnRan(SimThread* thread, Cycles used, TimePoint now) = 0;

  // After OnRan: if the policy wants the thread off the CPU until a future time (RBS
  // budget exhaustion -> sleep until next period), return that time.
  virtual std::optional<TimePoint> ThrottleUntil(SimThread* thread, TimePoint now) = 0;

  // State-change notifications.
  virtual void OnWake(SimThread* /*thread*/, TimePoint /*now*/) {}
  virtual void OnBlock(SimThread* /*thread*/, TimePoint /*now*/) {}
};

}  // namespace realrate

#endif  // REALRATE_SCHED_SCHEDULER_H_
