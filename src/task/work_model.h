// WorkModel: how a simulated thread spends the CPU cycles the dispatcher grants it.
// Concrete models (producer, consumer, CPU hog, interactive, pipeline stage...) live in
// src/workloads.
#ifndef REALRATE_TASK_WORK_MODEL_H_
#define REALRATE_TASK_WORK_MODEL_H_

#include <cstdint>

#include "util/time.h"
#include "util/types.h"

namespace realrate {

// Outcome of one scheduling slice.
struct RunResult {
  enum class Next : uint8_t {
    // Consumed `used` cycles and remains runnable (used == granted unless it yielded).
    kRunnable,
    // Blocked on a wait object (queue full/empty, mutex, tty). The work model has
    // already registered the thread with the wait object; the machine only marks the
    // thread blocked. `block_tag` identifies the object for tracing.
    kBlocked,
    // Voluntarily sleeps until `wake_at` (e.g. an isochronous device waiting for its
    // next frame time).
    kSleeping,
    // Finished; the thread leaves the system.
    kExited,
  };

  Cycles used = 0;
  Next next = Next::kRunnable;
  int64_t block_tag = -1;
  TimePoint wake_at;

  static RunResult Ran(Cycles used) { return {used, Next::kRunnable, -1, TimePoint()}; }
  static RunResult Blocked(Cycles used, int64_t tag) {
    return {used, Next::kBlocked, tag, TimePoint()};
  }
  static RunResult Sleeping(Cycles used, TimePoint wake_at) {
    return {used, Next::kSleeping, -1, wake_at};
  }
  static RunResult Exited(Cycles used) { return {used, Next::kExited, -1, TimePoint()}; }
};

class SimThread;

class WorkModel {
 public:
  virtual ~WorkModel() = default;

  // Runs for up to `granted` cycles starting at virtual time `now`. Must consume
  // result.used <= granted cycles. Queue operations take effect immediately (the
  // simulator treats a slice's side effects as happening at slice start).
  virtual RunResult Run(TimePoint now, Cycles granted) = 0;

  // Notification that the thread was woken after blocking/sleeping.
  virtual void OnWake(TimePoint /*now*/) {}

  // Called once by ThreadRegistry::Create to attach the owning thread. Work models use
  // it for wait registration (they need the thread id) and progress counters.
  void Bind(SimThread* self) { self_ = self; }

 protected:
  SimThread* self() const { return self_; }

 private:
  SimThread* self_ = nullptr;
};

}  // namespace realrate

#endif  // REALRATE_TASK_WORK_MODEL_H_
