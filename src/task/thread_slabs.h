// Cache-conscious thread state: the hot fields the dispatch pick and the controller
// tick touch for *every* thread — run state, core affinity, reservation (granted ppt,
// period rank, period deadline), remaining budget, progress pressure — mirrored out
// of the SimThread heap objects into structure-of-arrays slabs, plus the arena the
// thread records themselves are allocated from.
//
// Why: at 4k threads/core the per-thread sweeps (goodness scan, replenish sweep,
// placement census, idle-suspension check, controller stages) chase one heap object
// per thread — ~200 bytes each, pointer-rich, allocator-scattered — and blow L2. The
// slab columns pack the same decisions into a few contiguous bytes per thread, so a
// sweep touches cachelines proportional to the *fields it reads*, not to sizeof
// (SimThread). The Corey lesson applied to our own hot paths.
//
// Ownership and coherence model:
//   - SimThread remains the canonical store. Every hot-field setter on SimThread
//     write-throughs to its bound slab (see task/thread.cc), so the columns are
//     coherent at every instant — not rebuilt per tick. Readers (RbsScheduler column
//     scans, Machine census/rebalance/idle checks, controller stages) never observe
//     staleness; shadow-check mode (RbsConfig/ControllerConfig) asserts
//     slab == object at every pick and controller tick.
//   - `pressure` is the one controller-owned column: the control pipeline's
//     Sample/Estimate stages write it (there is no SimThread field behind it).
//   - Slots are append-only and stable: Bind appends one, nothing releases one, and
//     nothing — migration, reservation churn, other threads exiting — ever moves a
//     bound thread's slot. The Machine moves *slots between cores* by rewriting the
//     cpu column, not by moving records. Exited threads keep their slot and read as
//     kExited, so sweeps skip them by predicate.
//   - id → slot is the registry's dense ThreadId space: the registry binds every
//     thread at Create, in id order, so slot == id and slot order == creation order,
//     which is what keeps column sweeps bit-identical (including floating-point sum
//     order) to a sweep over the registry's threads in creation order.
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

#include "task/thread.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace realrate {

// The rate-monotonic period rank: periods-per-hour, so any realistic period (>= 1 ms)
// maps to a positive, strictly rate-ordered value. Shared by RbsScheduler::Goodness
// (the reference semantics), the pick index, and the slab's rm_rank column, so no two
// consumers can ever disagree on ordering.
inline int64_t PeriodRank(Duration period) { return Duration::Seconds(3600) / period; }

class ThreadSlabs {
 public:
  static constexpr int32_t kNoSlot = -1;

  ThreadSlabs() = default;
  ThreadSlabs(const ThreadSlabs&) = delete;
  ThreadSlabs& operator=(const ThreadSlabs&) = delete;
  ~ThreadSlabs();  // Unbinds every bound thread.

  // Binds `thread` (not currently bound anywhere) to a new slot appended at the end
  // and seeds its columns from the object. O(1) amortized.
  int32_t Bind(SimThread* thread);

  // Slots allocated so far. Column sweeps iterate [0, slot_count()) in slot order.
  int32_t slot_count() const { return static_cast<int32_t>(thread_.size()); }
  // Bound threads whose state column is kRunnable — the Machine's O(1)
  // idle-suspension check.
  int64_t runnable_count() const { return runnable_count_; }

  // Back-pointer to the thread bound at `slot`.
  SimThread* thread_at(int32_t slot) const { return thread_[static_cast<size_t>(slot)]; }

  // --- Column reads ---
  ThreadState state(int32_t slot) const { return state_[static_cast<size_t>(slot)]; }
  SchedPolicy policy(int32_t slot) const { return policy_[static_cast<size_t>(slot)]; }
  ThreadClass cls(int32_t slot) const { return class_[static_cast<size_t>(slot)]; }
  CpuId cpu(int32_t slot) const { return cpu_[static_cast<size_t>(slot)]; }
  // The granted reservation, as the scheduler/controller actuated it.
  int32_t granted_ppt(int32_t slot) const { return granted_ppt_[static_cast<size_t>(slot)]; }
  int64_t rm_rank(int32_t slot) const { return rm_rank_[static_cast<size_t>(slot)]; }
  // End of the current period (period_start + period) in nanos: the EDF pick key and
  // the replenish due time.
  int64_t deadline_nanos(int32_t slot) const {
    return deadline_nanos_[static_cast<size_t>(slot)];
  }
  Cycles budget(int32_t slot) const { return budget_[static_cast<size_t>(slot)]; }
  double importance(int32_t slot) const { return importance_[static_cast<size_t>(slot)]; }

  // --- The controller-owned progress-pressure column ---
  double pressure(int32_t slot) const { return pressure_[static_cast<size_t>(slot)]; }
  void set_pressure(int32_t slot, double p) { pressure_[static_cast<size_t>(slot)] = p; }

  // Shadow-check mode: do `t`'s columns equal the object's canonical fields?
  // (Excludes `pressure`, which has no object-side field — the controller asserts it
  // against its own per-thread state.)
  bool MatchesObject(const SimThread& t) const;

 private:
  friend class SimThread;  // Write-through mirror hooks (task/thread.cc).

  void MirrorState(int32_t slot, ThreadState s) {
    const size_t i = static_cast<size_t>(slot);
    runnable_count_ += (s == ThreadState::kRunnable) - (state_[i] == ThreadState::kRunnable);
    state_[i] = s;
  }
  void MirrorClass(int32_t slot, ThreadClass c) { class_[static_cast<size_t>(slot)] = c; }
  void MirrorPolicy(int32_t slot, SchedPolicy p) { policy_[static_cast<size_t>(slot)] = p; }
  void MirrorCpu(int32_t slot, CpuId core) { cpu_[static_cast<size_t>(slot)] = core; }
  void MirrorImportance(int32_t slot, double w) { importance_[static_cast<size_t>(slot)] = w; }
  void MirrorBudget(int32_t slot, Cycles c) { budget_[static_cast<size_t>(slot)] = c; }
  // Re-derives the reservation columns (granted ppt, rank, deadline) from the
  // object's current proportion/period/period_start.
  void MirrorReservation(int32_t slot, const SimThread& t) {
    const size_t i = static_cast<size_t>(slot);
    granted_ppt_[i] = t.proportion().ppt();
    rm_rank_[i] = PeriodRank(t.period());
    deadline_nanos_[i] = (t.period_start() + t.period()).nanos();
  }

  void SeedColumns(int32_t slot, const SimThread& t);

  // One entry per slot. Parallel vectors rather than a struct so each sweep streams
  // only the bytes it reads.
  std::vector<SimThread*> thread_;
  std::vector<ThreadState> state_;
  std::vector<ThreadClass> class_;
  std::vector<SchedPolicy> policy_;
  std::vector<CpuId> cpu_;
  std::vector<int32_t> granted_ppt_;
  std::vector<int64_t> rm_rank_;
  std::vector<int64_t> deadline_nanos_;
  std::vector<Cycles> budget_;
  std::vector<double> importance_;
  std::vector<double> pressure_;

  int64_t runnable_count_ = 0;
};

// Bump allocator for SimThread records: fixed-size chunks, placement-new, stable
// addresses for the life of the arena (threads are never destroyed individually —
// exited threads keep their record, matching the registry's id -> thread contract).
// Replaces one heap allocation per thread with one per kRecordsPerChunk threads, and
// lays records out contiguously in creation order — the order every registry sweep
// walks them in.
class ThreadArena {
 public:
  ThreadArena() = default;
  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;
  ~ThreadArena();  // Destroys records in reverse creation order.

  SimThread* Create(ThreadId id, std::string name, std::unique_ptr<WorkModel> work);
  size_t size() const { return records_.size(); }

 private:
  static constexpr size_t kRecordsPerChunk = 256;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  size_t used_in_last_ = kRecordsPerChunk;  // Forces a chunk on first Create.
  std::vector<SimThread*> records_;         // Creation order, for destruction.
};

}  // namespace realrate

#endif  // REALRATE_TASK_THREAD_SLABS_H_
