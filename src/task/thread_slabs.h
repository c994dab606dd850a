// Cache-conscious thread state: the hot fields the dispatch pick and the controller
// tick touch for *every* thread — run state, policy, core affinity, importance,
// reservation (granted ppt, period, period rank, period deadline) and remaining
// budget — stored as structure-of-arrays slabs, plus the arena the thread records
// themselves are allocated from.
//
// Why: at 4k threads/core the per-thread sweeps (replenish sweep, reference pick,
// placement census, idle-suspension check, controller stages) would otherwise chase
// one heap object per thread — ~200 bytes each, pointer-rich — and blow L2. The slab
// columns pack the same decisions into a few contiguous bytes per thread, so a sweep
// touches cachelines proportional to the *fields it reads*, not to sizeof(SimThread).
// The Corey lesson applied to our own hot paths.
//
// Ownership model:
//   - The columns are the only store of a thread's hot fields. SimThread's hot
//     getters and setters (task/thread.h) are inline reads and writes of its own
//     slot; SimThread is the only writer, so there is no second copy to keep
//     coherent. Column sweeps (RbsScheduler, Machine census/rebalance/idle checks,
//     controller stages) and getter reads see the same bytes.
//   - `rm_rank` is derived from the period and written only with it
//     (SimThread::SetReservation). The period start is not stored: it is
//     `deadline − period`.
//   - A thread is born in its slot: the SimThread constructor appends it. Slots are
//     append-only and stable: nothing releases one, and nothing — migration,
//     reservation churn, other threads exiting — ever moves a thread's slot. The
//     Machine moves *slots between cores* by rewriting the cpu column, not by
//     moving records. Exited threads keep their slot and read as kExited, so sweeps
//     skip them by predicate.
//   - slot == ThreadId (asserted at append), so slot order == creation order, which
//     keeps column sweeps bit-identical (including floating-point sum order) to a
//     sweep over the registry's threads in creation order. The thread column is the
//     registry's one creation-order thread list.
//
// Thread-safety: none. Columns are read and written only from simulator events, on
// the one host thread that drives the event loop.
#ifndef REALRATE_TASK_THREAD_SLABS_H_
#define REALRATE_TASK_THREAD_SLABS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

enum class ThreadState : uint8_t {
  kRunnable,
  kRunning,
  kBlocked,   // Waiting on a queue/mutex/tty.
  kSleeping,  // Waiting on a timer (budget exhausted, next period, or voluntary).
  kExited,
};

const char* ToString(ThreadState state);

// The controller's taxonomy (paper Figure 2), plus the §3.2 interactive refinement.
enum class ThreadClass : uint8_t {
  kRealTime,          // Proportion and period specified: a reservation; never adapted.
  kAperiodicRealTime, // Proportion specified, period assigned by the controller.
  kRealRate,          // Progress metric visible; controller estimates both.
  kMiscellaneous,     // No information; constant-pressure heuristic.
  kInteractive,       // Tty listener: small period, proportion from burst measurement.
};

const char* ToString(ThreadClass cls);

// Scheduling policies recognised by the dispatcher layer.
enum class SchedPolicy : uint8_t {
  kReservation,  // Under the RBS proportion/period policy.
  kOther,        // Default policy (used before registration and by baselines).
};

// The rate-monotonic period rank: periods-per-hour, so any realistic period (>= 1 ms)
// maps to a positive, strictly rate-ordered value. Shared by the pick index, the
// reference pick scan and the slab's rm_rank column, so no two consumers can ever
// disagree on ordering.
inline int64_t PeriodRank(Duration period) { return Duration::Seconds(3600) / period; }

class SimThread;
class WorkModel;

class ThreadSlabs {
 public:
  static constexpr int32_t kNoSlot = -1;

  ThreadSlabs() = default;
  ThreadSlabs(const ThreadSlabs&) = delete;
  ThreadSlabs& operator=(const ThreadSlabs&) = delete;

  // Slots allocated so far. Column sweeps iterate [0, slot_count()) in slot order.
  int32_t slot_count() const { return static_cast<int32_t>(thread_.size()); }
  // Threads whose state column is kRunnable — the Machine's O(1) idle-suspension
  // check.
  int64_t runnable_count() const { return runnable_count_; }

  // The thread in `slot`, and every thread in slot (== creation == id) order.
  SimThread* thread_at(int32_t slot) const { return thread_[static_cast<size_t>(slot)]; }
  const std::vector<SimThread*>& threads() const { return thread_; }

  // --- Column reads ---
  ThreadState state(int32_t slot) const { return state_[static_cast<size_t>(slot)]; }
  SchedPolicy policy(int32_t slot) const { return policy_[static_cast<size_t>(slot)]; }
  CpuId cpu(int32_t slot) const { return cpu_[static_cast<size_t>(slot)]; }
  double importance(int32_t slot) const { return importance_[static_cast<size_t>(slot)]; }
  // The granted reservation, as the scheduler/controller actuated it.
  int32_t granted_ppt(int32_t slot) const { return granted_ppt_[static_cast<size_t>(slot)]; }
  int64_t period_nanos(int32_t slot) const { return period_nanos_[static_cast<size_t>(slot)]; }
  int64_t rm_rank(int32_t slot) const { return rm_rank_[static_cast<size_t>(slot)]; }
  // End of the current period (period_start + period) in nanos: the EDF pick key and
  // the replenish due time.
  int64_t deadline_nanos(int32_t slot) const {
    return deadline_nanos_[static_cast<size_t>(slot)];
  }
  Cycles budget(int32_t slot) const { return budget_[static_cast<size_t>(slot)]; }

 private:
  friend class SimThread;  // The only writer: appends its slot, then writes only it.

  // A new thread's period (the paper's default), starting at the origin.
  static constexpr Duration kDefaultPeriod = Duration::Millis(30);

  // Appends `thread`'s slot with a new thread's defaults. The slot is its id.
  void Append(SimThread* thread);

  // One entry per slot. Parallel vectors rather than a struct so each sweep streams
  // only the bytes it reads.
  std::vector<SimThread*> thread_;
  std::vector<ThreadState> state_;
  std::vector<SchedPolicy> policy_;
  std::vector<CpuId> cpu_;
  std::vector<double> importance_;
  std::vector<int32_t> granted_ppt_;
  std::vector<int64_t> period_nanos_;
  std::vector<int64_t> rm_rank_;
  std::vector<int64_t> deadline_nanos_;
  std::vector<Cycles> budget_;

  int64_t runnable_count_ = 0;
};

// Bump allocator for SimThread records: fixed-size chunks, placement-new, stable
// addresses for the life of the arena (threads are never destroyed individually —
// exited threads keep their record, matching the registry's id -> thread contract).
// Replaces one heap allocation per thread with one per kRecordsPerChunk threads, and
// lays records out contiguously in creation order — the order every registry sweep
// walks them in. The slabs a record is created into must outlive the arena.
class ThreadArena {
 public:
  ThreadArena() = default;
  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;
  ~ThreadArena();  // Destroys records in reverse creation order.

  SimThread* Create(ThreadSlabs& slabs, ThreadId id, std::string name,
                    std::unique_ptr<WorkModel> work);

 private:
  static constexpr size_t kRecordsPerChunk = 256;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t used_in_last_ = kRecordsPerChunk;  // Forces a chunk on first Create.
};

}  // namespace realrate

#endif  // REALRATE_TASK_THREAD_SLABS_H_
